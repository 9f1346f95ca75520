package queueing

import (
	"math"
	"testing"
	"testing/quick"

	"sita/internal/dist"
	"sita/internal/floatcmp"
	"sita/internal/sim"
)

// c90ish is a heavy-tailed size distribution calibrated like the paper's
// C90 trace: smallest jobs around a minute, largest around 2.2e6 seconds,
// mean around 4500 seconds; the implied tail index is ~0.64 and a fraction
// of a percent of jobs carries half the load.
func c90ish() dist.BoundedPareto {
	b, err := dist.FitBoundedParetoMean(4500, 60, 2.2e6)
	if err != nil {
		panic(err)
	}
	return b
}

func TestSITAHostMassesAndLoadsSum(t *testing.T) {
	size := c90ish()
	lambda := 2 * 0.7 / size.Moment(1)
	cut := EqualLoadCutoff(size)
	r := NewSITA(lambda, size, []float64{cut}).Analyze()
	if len(r.Hosts) != 2 {
		t.Fatalf("hosts = %d, want 2", len(r.Hosts))
	}
	massSum := r.Hosts[0].JobFraction + r.Hosts[1].JobFraction
	if !floatcmp.AlmostEqual(massSum, 1, 1e-9) {
		t.Fatalf("job fractions sum to %v", massSum)
	}
	loadSum := r.LoadFractions[0] + r.LoadFractions[1]
	if !floatcmp.AlmostEqual(loadSum, 1, 1e-9) {
		t.Fatalf("load fractions sum to %v", loadSum)
	}
	if !floatcmp.AlmostEqual(r.SystemLoad, 0.7, 1e-6) {
		t.Fatalf("system load = %v, want 0.7", r.SystemLoad)
	}
}

func TestSITAEqualLoadBalances(t *testing.T) {
	size := c90ish()
	cut := EqualLoadCutoff(size)
	lambda := 2 * 0.6 / size.Moment(1)
	hosts := NewSITA(lambda, size, []float64{cut}).HostAnalysis()
	if !floatcmp.AlmostEqual(hosts[0].Load, hosts[1].Load, 1e-4) {
		t.Fatalf("SITA-E loads unequal: %v vs %v", hosts[0].Load, hosts[1].Load)
	}
	// Heavy tail: the short host must carry the overwhelming majority of
	// jobs (the paper reports 98.7% for the C90 data).
	if hosts[0].JobFraction < 0.9 {
		t.Fatalf("short-host job fraction = %v, want > 0.9", hosts[0].JobFraction)
	}
}

func TestSITAEVarianceReduction(t *testing.T) {
	// SITA-E's short host must see far lower size variability than the raw
	// stream (the whole point of size-interval assignment).
	size := c90ish()
	cut := EqualLoadCutoff(size)
	short := dist.NewTruncated(size, 0, cut)
	if scv := dist.SquaredCV(short); scv > dist.SquaredCV(size)/2 {
		t.Fatalf("short-host C^2 = %v, want far below raw %v", scv, dist.SquaredCV(size))
	}
}

func TestSITAEBeatsRandomAndLWLAtHighLoad(t *testing.T) {
	// The paper's figure 2/8 ordering at load 0.7 (2 hosts): Random >>
	// LWL > SITA-E in mean slowdown.
	size := c90ish()
	h := 2
	lambda := float64(h) * 0.7 / size.Moment(1)
	random := RandomSplit(lambda, size, h).MeanSlowdown()
	lwl := LWL(lambda, size, h).MeanSlowdown()
	sitaE := NewSITA(lambda, size, []float64{EqualLoadCutoff(size)}).MeanSlowdown()
	if !(random > lwl && lwl > sitaE) {
		t.Fatalf("ordering violated: random=%v lwl=%v sitaE=%v", random, lwl, sitaE)
	}
	if random/sitaE < 3 {
		t.Fatalf("random/sitaE = %v, want large gap", random/sitaE)
	}
}

func TestFeasibleCutoffRange(t *testing.T) {
	size := c90ish()
	// Low load: everything feasible.
	lambda := 2 * 0.3 / size.Moment(1)
	cLo, cHi, err := FeasibleCutoffRange(lambda, size)
	if err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	if cLo >= cHi {
		t.Fatalf("range [%v, %v] empty", cLo, cHi)
	}
	// High load: range shrinks but exists.
	lambda = 2 * 0.9 / size.Moment(1)
	cLo2, cHi2, err := FeasibleCutoffRange(lambda, size)
	if err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	if cLo2 < cLo {
		t.Fatalf("high-load lower bound %v should exceed low-load %v", cLo2, cLo)
	}
	if cHi2 > cHi*1.0001 {
		t.Fatalf("high-load upper bound %v should not grow (was %v)", cHi2, cHi)
	}
	// Overload: no feasible cutoff.
	lambda = 2 * 1.2 / size.Moment(1)
	if _, _, err := FeasibleCutoffRange(lambda, size); err == nil {
		t.Fatal("expected infeasibility at load 1.2")
	}
}

// TestVanishingLoadIsFeasible checks that a per-host load far below the
// stability margin still has a feasible cutoff range, and that both
// cutoff searches answer inside it: a vanishing load is not an overload.
func TestVanishingLoadIsFeasible(t *testing.T) {
	size := c90ish()
	for _, rho := range []float64{1e-9, 4e-7} {
		lambda := 2 * rho / size.Moment(1)
		cLo, cHi, err := FeasibleCutoffRange(lambda, size)
		if err != nil || !(cLo < cHi) {
			t.Fatalf("load %g: range [%v, %v], %v; want a non-empty range", rho, cLo, cHi, err)
		}
		for _, s := range []struct {
			name   string
			search func(float64, dist.Distribution) (float64, error)
		}{{"opt", OptimalCutoff}, {"fair", FairCutoff}} {
			c, err := s.search(lambda, size)
			if err != nil || c < cLo || c > cHi {
				t.Errorf("load %g: %s cutoff %v, %v; want one in [%v, %v]", rho, s.name, c, err, cLo, cHi)
			}
		}
	}
}

func TestOptimalCutoffBeatsEqualLoad(t *testing.T) {
	size := c90ish()
	for _, load := range []float64{0.5, 0.7, 0.8} {
		lambda := 2 * load / size.Moment(1)
		cOpt, err := OptimalCutoff(lambda, size)
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		sOpt := NewSITA(lambda, size, []float64{cOpt}).MeanSlowdown()
		sE := NewSITA(lambda, size, []float64{EqualLoadCutoff(size)}).MeanSlowdown()
		if sOpt > sE {
			t.Fatalf("load %v: opt %v worse than equal-load %v", load, sOpt, sE)
		}
		// Figure 9: the gap should be substantial at medium-high load.
		if load >= 0.7 && sE/sOpt < 2 {
			t.Errorf("load %v: improvement only %vx, want > 2x", load, sE/sOpt)
		}
	}
}

func TestOptimalCutoffUnderloadsShortHost(t *testing.T) {
	// Figure 5: the optimal split sends *less* than half the load to the
	// short host.
	size := c90ish()
	for _, load := range []float64{0.4, 0.6, 0.8} {
		lambda := 2 * load / size.Moment(1)
		c, err := OptimalCutoff(lambda, size)
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		fr := NewSITA(lambda, size, []float64{c}).Analyze().LoadFractions[0]
		if fr >= 0.5 {
			t.Fatalf("load %v: short-host load fraction %v, want < 0.5", load, fr)
		}
	}
}

func TestRuleOfThumbApproximatesOptimal(t *testing.T) {
	// The paper's rule: short-host load fraction ~= rho/2. Verify the
	// optimizer lands in that neighborhood.
	size := c90ish()
	for _, load := range []float64{0.5, 0.7} {
		lambda := 2 * load / size.Moment(1)
		c, err := OptimalCutoff(lambda, size)
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		fr := NewSITA(lambda, size, []float64{c}).Analyze().LoadFractions[0]
		rule := load / 2
		if math.Abs(fr-rule) > 0.20 {
			t.Errorf("load %v: opt fraction %v vs rule-of-thumb %v (off > 0.20)", load, fr, rule)
		}
	}
}

func TestFairCutoffEqualizesSlowdowns(t *testing.T) {
	size := c90ish()
	for _, load := range []float64{0.5, 0.7, 0.9} {
		lambda := 2 * load / size.Moment(1)
		c, err := FairCutoff(lambda, size)
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		hosts := NewSITA(lambda, size, []float64{c}).HostAnalysis()
		s, l := hosts[0].MeanSlowdown, hosts[1].MeanSlowdown
		if math.Abs(s-l)/math.Max(s, l) > 0.02 {
			t.Fatalf("load %v: slowdowns %v vs %v not equalized", load, s, l)
		}
	}
}

func TestFairCloseToOptimal(t *testing.T) {
	// Figure 4's headline: SITA-U-fair is only slightly worse than
	// SITA-U-opt.
	size := c90ish()
	lambda := 2 * 0.7 / size.Moment(1)
	cOpt, err := OptimalCutoff(lambda, size)
	if err != nil {
		t.Fatal(err)
	}
	cFair, err := FairCutoff(lambda, size)
	if err != nil {
		t.Fatal(err)
	}
	sOpt := NewSITA(lambda, size, []float64{cOpt}).MeanSlowdown()
	sFair := NewSITA(lambda, size, []float64{cFair}).MeanSlowdown()
	if sFair < sOpt*(1-1e-9) {
		t.Fatalf("fair %v beats opt %v: optimizer failed", sFair, sOpt)
	}
	if sFair > 2*sOpt {
		t.Fatalf("fair %v more than 2x worse than opt %v", sFair, sOpt)
	}
}

func TestCutoffForShortLoadMonotone(t *testing.T) {
	size := c90ish()
	lambda := 2 * 0.7 / size.Moment(1)
	prev := 0.0
	total := lambda * size.Moment(1)
	for _, target := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3} {
		c := CutoffForShortLoad(lambda, size, math.Min(target, total))
		if c < prev {
			t.Fatalf("cutoff not monotone in target load: %v after %v", c, prev)
		}
		prev = c
		got := workBelow(lambda, size, c)
		want := math.Min(target, total)
		if !floatcmp.AlmostEqual(got, want, 1e-4) {
			t.Errorf("target %v: realized short load %v", want, got)
		}
	}
}

func TestEqualLoadCutoffsMulti(t *testing.T) {
	size := c90ish()
	for _, h := range []int{2, 3, 4, 8} {
		cuts, err := EqualLoadCutoffs(size, h)
		if err != nil {
			t.Fatal(err)
		}
		if len(cuts) != h-1 {
			t.Fatalf("h=%d: %d cutoffs", h, len(cuts))
		}
		lambda := float64(h) * 0.6 / size.Moment(1)
		hosts := NewSITA(lambda, size, cuts).HostAnalysis()
		for i, hm := range hosts {
			if !floatcmp.AlmostEqual(hm.Load, 0.6, 1e-3) {
				t.Errorf("h=%d host %d load = %v, want 0.6", h, i, hm.Load)
			}
		}
	}
}

func TestOptimalCutoffsMultiImprove(t *testing.T) {
	size := c90ish()
	h := 4
	lambda := float64(h) * 0.7 / size.Moment(1)
	cuts, err := OptimalCutoffs(lambda, size, h)
	if err != nil {
		t.Fatal(err)
	}
	sOpt := NewSITA(lambda, size, cuts).MeanSlowdown()
	eCuts, err := EqualLoadCutoffs(size, h)
	if err != nil {
		t.Fatal(err)
	}
	sE := NewSITA(lambda, size, eCuts).MeanSlowdown()
	if sOpt > sE {
		t.Fatalf("multi-opt %v worse than equal-load %v", sOpt, sE)
	}
}

func TestFairCutoffsMultiEqualize(t *testing.T) {
	size := c90ish()
	h := 4
	lambda := float64(h) * 0.7 / size.Moment(1)
	cuts, err := FairCutoffs(lambda, size, h)
	if err != nil {
		t.Fatal(err)
	}
	hosts := NewSITA(lambda, size, cuts).HostAnalysis()
	var lo, hi float64 = math.Inf(1), 0
	for _, hm := range hosts {
		if hm.JobFraction == 0 {
			continue
		}
		lo = math.Min(lo, hm.MeanSlowdown)
		hi = math.Max(hi, hm.MeanSlowdown)
	}
	if hi/lo > 1.10 {
		t.Fatalf("per-host slowdowns spread %v..%v (> 10%%)", lo, hi)
	}
}

func TestSITAAnalysisAgreesWithDirectMG1(t *testing.T) {
	// A SITA system with a cutoff above the support maximum is a single
	// M/G/1 at host 0.
	size := dist.NewBoundedPareto(1.5, 1, 100)
	lambda := 0.5 / size.Moment(1)
	r := NewSITA(lambda, size, []float64{200}).Analyze()
	direct := NewMG1(lambda, size)
	if !floatcmp.AlmostEqual(r.MeanSlowdown, direct.MeanSlowdown(), 1e-6) {
		t.Fatalf("degenerate SITA %v vs MG1 %v", r.MeanSlowdown, direct.MeanSlowdown())
	}
	if r.Hosts[1].JobFraction != 0 {
		t.Fatalf("host 1 should be empty, has fraction %v", r.Hosts[1].JobFraction)
	}
}

func TestSITALawOfTotalExpectationProperty(t *testing.T) {
	// Mixing host conditional response moments must reproduce a direct
	// job-average computation for random cutoffs.
	size := dist.NewBoundedPareto(1.2, 1, 1e5)
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed, 0)
		cut := size.Quantile(0.3 + 0.6*rng.Float64())
		lambda := 2 * 0.5 / size.Moment(1)
		r := NewSITA(lambda, size, []float64{cut}).Analyze()
		// Weighted host mean sizes must reassemble E[X].
		var ex float64
		for _, hm := range r.Hosts {
			if hm.JobFraction == 0 {
				continue
			}
			tr := dist.NewTruncated(size, hm.Lo, hm.Hi)
			ex += hm.JobFraction * tr.Moment(1)
		}
		return floatcmp.AlmostEqual(ex, size.Moment(1), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSITAValidation(t *testing.T) {
	size := dist.NewExponential(1)
	for i, fn := range []func(){
		func() { NewSITA(0, size, nil) },
		func() { NewSITA(1, size, []float64{5, 2}) },
		func() { NewMMh(0, 1, 1) },
		func() { NewMGh(1, nil, 1) },
		func() { NewGG1(1, -1, size) },
		func() { ErlangC(0, 1) },
		func() { RandomSplit(1, size, 0) },
		func() { RoundRobinSplit(1, size, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// The cutoff searches are reachable from CLI flags, so bad host counts
// must come back as errors rather than panics.
func TestCutoffSearchValidationErrors(t *testing.T) {
	size := dist.NewExponential(1)
	if _, err := EqualLoadCutoffs(size, 1); err == nil {
		t.Error("EqualLoadCutoffs(h=1): expected error")
	}
	if _, err := OptimalCutoffs(1, size, 1); err == nil {
		t.Error("OptimalCutoffs(h=1): expected error")
	}
	if _, err := FairCutoffs(1, size, 1); err == nil {
		t.Error("FairCutoffs(h=1): expected error")
	}
}

func TestOptimalCutoffInfeasible(t *testing.T) {
	size := dist.NewExponential(10)
	lambda := 0.25 // rho per host = 1.25
	if _, err := OptimalCutoff(lambda, size); err == nil {
		t.Fatal("expected infeasibility")
	}
	if _, err := FairCutoff(lambda, size); err == nil {
		t.Fatal("expected infeasibility")
	}
}

// TestSITAAnalyzeUnstableSplit checks that a split overloading one host
// reports +Inf means and +Inf variances, never the NaN of Inf - Inf.
func TestSITAAnalyzeUnstableSplit(t *testing.T) {
	size := c90ish()
	lambda := 2 * 0.9 / size.Moment(1)
	// Nearly all work goes to the short host: its load is about 1.8.
	s := NewSITA(lambda, size, []float64{size.P / 2})
	if s.Feasible() {
		t.Fatal("split with an overloaded short host reported feasible")
	}
	r := s.Analyze()
	for name, v := range map[string]float64{
		"MeanSlowdown": r.MeanSlowdown, "VarSlowdown": r.VarSlowdown,
		"MeanResponse": r.MeanResponse, "VarResponse": r.VarResponse,
	} {
		if !math.IsInf(v, 1) {
			t.Errorf("%s = %v, want +Inf", name, v)
		}
	}
}

func TestRuleOfThumbCutoffLoadFraction(t *testing.T) {
	size := c90ish()
	load := 0.6
	lambda := 2 * load / size.Moment(1)
	c := RuleOfThumbCutoff(lambda, size)
	fr := NewSITA(lambda, size, []float64{c}).Analyze().LoadFractions[0]
	if !floatcmp.AlmostEqual(fr, load/2, 1e-3) {
		t.Fatalf("rule-of-thumb load fraction = %v, want %v", fr, load/2)
	}
}
