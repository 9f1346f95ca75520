package core

import (
	"errors"
	"math"
	"testing"

	"sita/internal/dist"
	"sita/internal/queueing"
	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/trace"
	"sita/internal/workload"
)

func c90Size(t *testing.T) dist.BoundedPareto {
	t.Helper()
	d, err := trace.C90().SizeDist()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{
		SITAE:      "SITA-E",
		SITAUOpt:   "SITA-U-opt",
		SITAUFair:  "SITA-U-fair",
		SITARule:   "SITA-U-rule",
		Variant(9): "Variant(9)",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), s)
		}
	}
	if len(Variants()) != 4 {
		t.Errorf("Variants() has %d entries", len(Variants()))
	}
}

func TestNewDesignTwoHosts(t *testing.T) {
	size := c90Size(t)
	for _, v := range Variants() {
		d, err := NewDesign(v, 0.7, size, 2)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !d.HasPrediction {
			t.Errorf("%v: 2-host design should carry a prediction", v)
		}
		if d.Cutoff <= size.K || d.Cutoff >= size.P {
			t.Errorf("%v: cutoff %v outside support", v, d.Cutoff)
		}
		if d.ShortHosts != 1 {
			t.Errorf("%v: short hosts = %d, want 1", v, d.ShortHosts)
		}
		p := d.Policy()
		if p.Name() != v.String() {
			t.Errorf("policy name %q, want %q", p.Name(), v.String())
		}
	}
}

func TestNewDesignValidation(t *testing.T) {
	size := c90Size(t)
	if _, err := NewDesign(SITAE, 0, size, 2); err == nil {
		t.Error("load 0 accepted")
	}
	if _, err := NewDesign(SITAE, 0.5, size, 1); err == nil {
		t.Error("1 host accepted")
	}
	if _, err := NewDesign(Variant(42), 0.5, size, 2); err == nil {
		t.Error("unknown variant accepted")
	}
	// Near load 1 the rule-of-thumb cutoff leaves a host unstable; the
	// design is refused as the optimizing searches refuse that load.
	for _, v := range []Variant{SITARule, SITAUOpt} {
		if d, err := NewDesign(v, 0.999999999, size, 2); !errors.Is(err, queueing.ErrInfeasible) {
			t.Errorf("%v at load 0.999999999: design %+v, error %v; want ErrInfeasible", v, d, err)
		}
	}
}

// TestAdvise checks that Advise holds NewDesign's outcome for every
// variant, in Variants() order, and recommends SITA-U-fair when it is
// feasible and nothing when no SITA-U design is.
func TestAdvise(t *testing.T) {
	size := c90Size(t)
	for _, tc := range []struct {
		load  float64
		hosts int
		want  string
	}{
		{0.7, 2, "SITA-U-fair"},
		{0.3, 8, "SITA-U-fair"},
		{0.999999999, 2, ""}, // overloaded: no cutoff search is feasible
		{0.7, 1, ""},
	} {
		a := Advise(tc.load, size, tc.hosts)
		if len(a.Variants) != len(Variants()) {
			t.Fatalf("load %v, %d hosts: %d variants, want %d", tc.load, tc.hosts, len(a.Variants), len(Variants()))
		}
		for i, v := range Variants() {
			vd := a.Variants[i]
			d, err := NewDesign(v, tc.load, size, tc.hosts)
			if vd.Variant != v || (vd.Err == nil) != (err == nil) || (vd.Design == nil) != (d == nil) ||
				d != nil && (vd.Design.Cutoff != d.Cutoff || vd.Design.Predicted.MeanSlowdown != d.Predicted.MeanSlowdown) {
				t.Errorf("load %v, %d hosts: entry %d = %+v, want NewDesign(%v) = %+v, %v", tc.load, tc.hosts, i, vd, v, d, err)
			}
		}
		got := ""
		if a.Recommended != nil {
			got = a.Recommended.Variant.String()
		}
		if got != tc.want {
			t.Errorf("load %v, %d hosts: recommended %q, want %q", tc.load, tc.hosts, got, tc.want)
		}
	}
	// Recommended has no SITA-U-opt fallback because none is needed: a
	// fair design exists wherever an opt design does, over every
	// profile, loads up to the overload edge, and host counts from 2 to
	// 64.
	loads := []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999, 0.99999, 0.999999999}
	optDesigns := 0
	for _, prof := range []trace.Profile{trace.C90(), trace.J90(), trace.CTC()} {
		psize, err := prof.SizeDist()
		if err != nil {
			t.Fatal(err)
		}
		for _, load := range loads {
			for _, hosts := range []int{2, 3, 4, 8, 16, 64} {
				var opt, fair *Design
				for _, vd := range Advise(load, psize, hosts).Variants {
					switch vd.Variant {
					case SITAUOpt:
						opt = vd.Design
					case SITAUFair:
						fair = vd.Design
					}
				}
				if opt != nil {
					optDesigns++
					if fair == nil {
						t.Errorf("%s, load %v, %d hosts: SITA-U-opt has a design, SITA-U-fair none", prof.Name, load, hosts)
					}
				}
			}
		}
	}
	if optDesigns == 0 {
		t.Fatal("no SITA-U-opt design anywhere on the grid: the check above is vacuous")
	}
	a := Advise(0.7, size, 2)
	if a.MeanSize != size.Moment(1) || a.SizeSCV != dist.SquaredCV(size) || a.TailCutoff != size.LoadCutoff(0.5) {
		t.Errorf("characterization %+v does not match the size distribution", a)
	}
	if a.TailFraction <= 0 || a.TailFraction >= 0.01 {
		t.Errorf("tail job fraction %v: half the C90 load should sit in well under 1%% of jobs", a.TailFraction)
	}
}

func TestDesignUnbalancedVariantsUnderloadShortSide(t *testing.T) {
	size := c90Size(t)
	e, err := NewDesign(SITAE, 0.7, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.ShortLoadFraction()-0.5) > 0.01 {
		t.Errorf("SITA-E short load fraction %v, want 0.5", e.ShortLoadFraction())
	}
	for _, v := range []Variant{SITAUOpt, SITAUFair, SITARule} {
		d, err := NewDesign(v, 0.7, size, 2)
		if err != nil {
			t.Fatal(err)
		}
		if fr := d.ShortLoadFraction(); fr >= 0.5 {
			t.Errorf("%v: short load fraction %v, want < 0.5 (unbalanced)", v, fr)
		}
	}
}

func TestRuleDesignMatchesRuleFraction(t *testing.T) {
	size := c90Size(t)
	for _, load := range []float64{0.4, 0.6, 0.8} {
		d, err := NewDesign(SITARule, load, size, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.ShortLoadFraction(), RuleOfThumbFraction(load); math.Abs(got-want) > 0.01 {
			t.Errorf("load %v: rule fraction %v, want %v", load, got, want)
		}
	}
}

func TestDesignPredictionOrdering(t *testing.T) {
	// Analytic predictions must reproduce figure 9's ordering:
	// opt <= rule/fair < E.
	size := c90Size(t)
	byVariant := map[Variant]float64{}
	for _, v := range Variants() {
		d, err := NewDesign(v, 0.7, size, 2)
		if err != nil {
			t.Fatal(err)
		}
		byVariant[v] = d.Predicted.MeanSlowdown
	}
	if !(byVariant[SITAUOpt] <= byVariant[SITAUFair] && byVariant[SITAUFair] < byVariant[SITAE]) {
		t.Errorf("prediction ordering violated: %v", byVariant)
	}
	if byVariant[SITAE]/byVariant[SITAUOpt] < 2 {
		t.Errorf("opt should improve on E substantially, got %vx", byVariant[SITAE]/byVariant[SITAUOpt])
	}
}

func TestGroupedDesign(t *testing.T) {
	size := c90Size(t)
	d, err := NewDesign(SITAUFair, 0.7, size, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.ShortHosts != 4 {
		t.Fatalf("short hosts = %d, want 4", d.ShortHosts)
	}
	if d.HasPrediction {
		t.Fatal("grouped design should not claim a closed-form prediction")
	}
	// The grouped policy keeps shorts on the first group.
	p := d.Policy()
	jobs := []workload.Job{
		{ID: 0, Arrival: 0, Size: d.Cutoff / 2},
		{ID: 1, Arrival: 1, Size: d.Cutoff * 2},
	}
	res := server.Run(jobs, server.Config{Hosts: 8, Policy: p, KeepRecords: true})
	for _, r := range res.Records {
		if r.Size <= d.Cutoff && r.Host >= 4 {
			t.Errorf("short job on host %d", r.Host)
		}
		if r.Size > d.Cutoff && r.Host < 4 {
			t.Errorf("long job on host %d", r.Host)
		}
	}
}

func TestClassify(t *testing.T) {
	size := c90Size(t)
	d, err := NewDesign(SITAE, 0.5, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Classify(d.Cutoff) != 0 {
		t.Error("boundary size should classify short")
	}
	if d.Classify(d.Cutoff*1.01) != 1 {
		t.Error("above-cutoff size should classify long")
	}
}

func TestAuditRequiresClasses(t *testing.T) {
	size := c90Size(t)
	d, err := NewDesign(SITAUFair, 0.6, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := &server.Result{}
	if _, err := d.Audit(res); err == nil {
		t.Error("audit without class tally should error")
	}
}

// TestAuditRequiresBothClasses pins that a class with no jobs is an
// error, not a mean slowdown of 0 and a "perfectly fair" spread of 1.
func TestAuditRequiresBothClasses(t *testing.T) {
	size := c90Size(t)
	d, err := NewDesign(SITAUFair, 0.6, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []int{0, 1} {
		res := &server.Result{Classes: stats.NewClassTally()}
		res.Classes.Add(class, 3)
		if a, err := d.Audit(res); err == nil {
			t.Errorf("audit with only class %d should error, got %+v", class, a)
		}
	}
	res := &server.Result{Classes: stats.NewClassTally()}
	res.Classes.Add(0, 2)
	res.Classes.Add(1, 4)
	a, err := d.Audit(res)
	if err != nil || a.ShortMean != 2 || a.LongMean != 4 || a.Spread != 2 {
		t.Errorf("two-class audit = %+v, %v; want means 2 and 4, spread 2", a, err)
	}
}

func TestSimulatedFairnessOfSITAUFair(t *testing.T) {
	// End-to-end: simulate SITA-U-fair and check short and long jobs see
	// comparable mean slowdowns, while SITA-E heavily favors one class.
	size := c90Size(t)
	load := 0.7
	lambda := 2 * load / size.Moment(1)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(77, 0), sim.NewRNG(77, 1))
	jobs := src.Take(250000)

	audits := map[Variant]FairnessAudit{}
	for _, v := range []Variant{SITAE, SITAUFair} {
		d, err := NewDesign(v, load, size, 2)
		if err != nil {
			t.Fatal(err)
		}
		res := server.Run(jobs, server.Config{
			Hosts:          2,
			Policy:         d.Policy(),
			WarmupFraction: 0.1,
			SizeClass:      d.Classify,
		})
		a, err := d.Audit(res)
		if err != nil {
			t.Fatal(err)
		}
		audits[v] = a
	}
	if audits[SITAUFair].Spread > 2.5 {
		t.Errorf("SITA-U-fair spread = %v, want near 1", audits[SITAUFair].Spread)
	}
	if audits[SITAE].Spread < audits[SITAUFair].Spread {
		t.Errorf("SITA-E spread %v should exceed SITA-U-fair %v",
			audits[SITAE].Spread, audits[SITAUFair].Spread)
	}
}

func TestExperimentalCutoffAgreesWithAnalytic(t *testing.T) {
	// The paper found experimental and analytical cutoffs "about the same".
	// Demand agreement within an order of magnitude on the derivation half
	// (the slowdown curve is flat near its optimum, so the cutoffs
	// themselves can differ more than the performance does).
	size := c90Size(t)
	load := 0.7
	lambda := 2 * load / size.Moment(1)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(88, 0), sim.NewRNG(88, 1))
	jobs := src.Take(60000)

	analytic, err := DeriveCutoff(SITAUOpt, lambda, size)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := ExperimentalCutoffs([]Variant{SITAUOpt}, jobs, size, 16)
	if err != nil {
		t.Fatal(err)
	}
	experimental := cuts[0]
	ratio := experimental / analytic
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("experimental cutoff %v vs analytic %v (ratio %v)", experimental, analytic, ratio)
	}
}

func TestExperimentalCutoffErrors(t *testing.T) {
	size := c90Size(t)
	if _, err := ExperimentalCutoffs([]Variant{SITAUOpt}, nil, size, 8); err == nil {
		t.Error("empty jobs accepted")
	}
	if _, err := ExperimentalCutoffs([]Variant{SITARule}, []workload.Job{{Arrival: 1, Size: 1}}, size, 8); err == nil {
		t.Error("unsupported variant accepted")
	}
	if _, err := ExperimentalCutoffs([]Variant{SITAUOpt, SITARule}, []workload.Job{{Arrival: 1, Size: 1}}, size, 8); err == nil {
		t.Error("unsupported variant accepted after a supported one")
	}
	if _, err := ExperimentalCutoffs(nil, []workload.Job{{Arrival: 1, Size: 1}}, size, 8); err == nil {
		t.Error("empty variant list accepted")
	}
}

// TestExperimentalCutoffsMatchSeparateSearches pins the shared grid: one
// search scoring several variants returns, bit for bit, the cutoffs of
// separate single-variant searches over the same jobs, in any order.
func TestExperimentalCutoffsMatchSeparateSearches(t *testing.T) {
	size := c90Size(t)
	lambda := 2 * 0.5 / size.Moment(1)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(89, 0), sim.NewRNG(89, 1))
	jobs := src.Take(20000)
	variants := []Variant{SITAUFair, SITAE, SITAUOpt}
	joint, err := ExperimentalCutoffs(variants, jobs, size, 16)
	if err != nil {
		t.Fatal(err)
	}
	if joint[0] == joint[1] || joint[1] == joint[2] || joint[0] == joint[2] {
		t.Fatalf("variants share a cutoff %v; the check cannot tell their scores apart", joint)
	}
	for i, v := range variants {
		alone, err := ExperimentalCutoffs([]Variant{v}, jobs, size, 16)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(joint[i]) != math.Float64bits(alone[0]) {
			t.Errorf("%v: joint search cutoff %x, separate search %x", v, joint[i], alone[0])
		}
	}
}

func TestNewDesignFull(t *testing.T) {
	size := c90Size(t)
	for _, v := range []Variant{SITAE, SITAUOpt, SITAUFair} {
		d, err := NewDesignFull(v, 0.7, size, 4)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(d.Cutoffs) != 3 {
			t.Fatalf("%v: %d cutoffs, want 3", v, len(d.Cutoffs))
		}
		if d.Predicted.MeanSlowdown <= 1 {
			t.Fatalf("%v: bogus prediction %v", v, d.Predicted.MeanSlowdown)
		}
		p := d.Policy()
		if p.Name() != v.String()+"-multi" {
			t.Fatalf("policy name %q", p.Name())
		}
	}
}

func TestNewDesignFullBeatsGroupedAnalytically(t *testing.T) {
	size := c90Size(t)
	full, err := NewDesignFull(SITAUOpt, 0.7, size, 4)
	if err != nil {
		t.Fatal(err)
	}
	equalLoad, err := NewDesignFull(SITAE, 0.7, size, 4)
	if err != nil {
		t.Fatal(err)
	}
	if full.Predicted.MeanSlowdown >= equalLoad.Predicted.MeanSlowdown {
		t.Fatalf("multi-opt %v should beat multi-E %v",
			full.Predicted.MeanSlowdown, equalLoad.Predicted.MeanSlowdown)
	}
}

func TestNewDesignFullValidation(t *testing.T) {
	size := c90Size(t)
	if _, err := NewDesignFull(SITARule, 0.5, size, 4); err == nil {
		t.Error("rule variant should be unsupported for full designs")
	}
	if _, err := NewDesignFull(SITAE, 0, size, 4); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := NewDesignFull(SITAE, 0.5, size, 1); err == nil {
		t.Error("1 host accepted")
	}
}
