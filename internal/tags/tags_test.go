package tags

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sita/internal/dist"
	"sita/internal/floatcmp"
	"sita/internal/sim"
	"sita/internal/workload"
)

func mkJobs(n int, load float64, hosts int, size dist.Distribution, seed uint64) []workload.Job {
	lambda := workload.RateForLoad(load, size.Moment(1), hosts)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(seed, 0), sim.NewRNG(seed, 1))
	return src.Take(n)
}

func TestSimulateHandCase(t *testing.T) {
	// One cutoff at 10. Job of size 25 runs 10s on host 0 (killed), then
	// restarts and runs 25s on host 1: response 35, wasted 10.
	jobs := []workload.Job{{ID: 0, Arrival: 0, Size: 25}}
	res := Simulate(jobs, []float64{10}, 0)
	if res.Slowdown.Count() != 1 {
		t.Fatalf("completed %d jobs, want 1", res.Slowdown.Count())
	}
	if got := res.Response.Mean(); got != 35 {
		t.Fatalf("response = %v, want 35", got)
	}
	if res.WastedWork != 10 {
		t.Fatalf("wasted = %v, want 10", res.WastedWork)
	}
	if res.TotalWork != 25 {
		t.Fatalf("useful = %v, want 25", res.TotalWork)
	}
	if res.PerHostCompleted[0] != 0 || res.PerHostCompleted[1] != 1 {
		t.Fatalf("completions %v, want [0 1]", res.PerHostCompleted)
	}
	if res.PerHostBusy[0] != 10 || res.PerHostBusy[1] != 25 {
		t.Fatalf("busy %v, want [10 25]", res.PerHostBusy)
	}
}

func TestSimulateSmallJobNeverKilled(t *testing.T) {
	jobs := []workload.Job{{ID: 0, Arrival: 0, Size: 5}}
	res := Simulate(jobs, []float64{10}, 0)
	if res.WastedWork != 0 {
		t.Fatalf("wasted = %v, want 0", res.WastedWork)
	}
	if res.Response.Mean() != 5 {
		t.Fatalf("response = %v, want 5", res.Response.Mean())
	}
	if res.PerHostCompleted[0] != 1 {
		t.Fatal("small job should finish on host 0")
	}
}

func TestSimulateFCFSBehindKill(t *testing.T) {
	// A big job blocks host 0 for exactly the cutoff, not its full size.
	jobs := []workload.Job{
		{ID: 0, Arrival: 0, Size: 100}, // killed at 10 on host 0
		{ID: 1, Arrival: 1, Size: 2},   // waits for the kill, starts at 10
	}
	res := Simulate(jobs, []float64{10}, 0)
	if got := res.Response.Count(); got != 2 {
		t.Fatalf("completed %d", got)
	}
	// Job 1 finishes at 12 -> response 11.
	if got := res.Response.Max(); !(got == 110 || got == 11) {
		t.Fatalf("unexpected responses, max = %v", got)
	}
	// Mean = (110 + 11)/2 where job 0 restarts at 10 on host 1 running 100.
	want := (110.0 + 11.0) / 2
	if math.Abs(res.Response.Mean()-want) > 1e-9 {
		t.Fatalf("mean response = %v, want %v", res.Response.Mean(), want)
	}
}

func TestSimulateSlowdownAtLeastOne(t *testing.T) {
	size := dist.NewBoundedPareto(1.1, 1, 1e4)
	jobs := mkJobs(20000, 0.5, 2, size, 3)
	cut := size.Quantile(0.99)
	res := Simulate(jobs, []float64{cut}, 0)
	if res.Slowdown.Count() != int64(len(jobs)) {
		t.Fatalf("completed %d of %d", res.Slowdown.Count(), len(jobs))
	}
	if res.Slowdown.Min() < 1 {
		t.Fatalf("slowdown %v < 1", res.Slowdown.Min())
	}
	if res.WasteFraction() <= 0 || res.WasteFraction() >= 1 {
		t.Fatalf("waste fraction = %v", res.WasteFraction())
	}
}

func TestAnalysisServiceMomentsSaneOnDeterministic(t *testing.T) {
	// All jobs size 5, cutoff 10: host 0 is an M/D/1, host 1 idle.
	size := dist.Deterministic{Value: 5}
	a := NewAnalysis(0.1, size, []float64{10})
	hosts := a.Hosts()
	if !floatcmp.AlmostEqual(hosts[0].Load, 0.5, 1e-9) {
		t.Fatalf("host 0 load = %v, want 0.5", hosts[0].Load)
	}
	if hosts[1].Load != 0 {
		t.Fatalf("host 1 load = %v, want 0", hosts[1].Load)
	}
	// M/D/1: E[W] = lambda E[X^2]/(2(1-rho)) = 0.1*25/(2*0.5) = 2.5.
	if !floatcmp.AlmostEqual(hosts[0].MeanWait, 2.5, 1e-9) {
		t.Fatalf("host 0 wait = %v, want 2.5", hosts[0].MeanWait)
	}
	// Slowdown: 1 + 2.5/5 = 1.5.
	if got := a.MeanSlowdown(); !floatcmp.AlmostEqual(got, 1.5, 1e-9) {
		t.Fatalf("mean slowdown = %v, want 1.5", got)
	}
	if got := a.MeanResponse(); !floatcmp.AlmostEqual(got, 7.5, 1e-9) {
		t.Fatalf("mean response = %v, want 7.5", got)
	}
}

func TestAnalysisAccountsWastedLoad(t *testing.T) {
	// Host 0 runs every job: small jobs to completion plus the cutoff's
	// worth of every eventually-killed big job, so its load strictly
	// exceeds the raw work of the small class. Host 1 reruns survivors
	// from scratch, so its load equals the surviving class's full work.
	size := dist.NewBoundedPareto(1.0, 1, 1e5)
	lambda := 2 * 0.5 / size.Moment(1)
	cut := size.Quantile(0.99)
	a := NewAnalysis(lambda, size, []float64{cut})
	hosts := a.Hosts()
	smallWork := lambda * dist.PartialMoment(size, 1, 0, cut)
	if hosts[0].Load <= smallWork {
		t.Fatalf("host 0 load %v should exceed small-class work %v (killed runs)", hosts[0].Load, smallWork)
	}
	surviving := lambda * dist.PartialMoment(size, 1, cut, math.Inf(1))
	if !floatcmp.AlmostEqual(hosts[1].Load, surviving, 1e-9) {
		t.Fatalf("host 1 load %v should equal surviving work %v (restart from scratch)", hosts[1].Load, surviving)
	}
}

func TestAnalysisMatchesSimulation(t *testing.T) {
	size := dist.NewBoundedPareto(1.2, 10, 1e5)
	load := 0.5
	lambda := 2 * load / size.Moment(1)
	cut := size.Quantile(0.995)
	a := NewAnalysis(lambda, size, []float64{cut})
	if !a.Feasible() {
		t.Skip("cutoff infeasible for this configuration")
	}
	jobs := mkJobs(400000, load, 2, size, 11)
	res := Simulate(jobs, []float64{cut}, 0.1)
	pred := a.MeanSlowdown()
	got := res.Slowdown.Mean()
	if math.Abs(got-pred)/pred > 0.25 {
		t.Fatalf("simulated slowdown %v vs analytic %v (off > 25%%)", got, pred)
	}
}

func TestAnalysisUnstableReportsInf(t *testing.T) {
	size := dist.NewBoundedPareto(1.1, 1, 1e5)
	lambda := 2 * 0.99 / size.Moment(1)
	// Absurdly low cutoff: nearly everything restarts, host 1 melts.
	a := NewAnalysis(lambda, size, []float64{2})
	if a.Feasible() {
		t.Fatal("expected infeasible")
	}
	if !math.IsInf(a.MeanSlowdown(), 1) || !math.IsInf(a.MeanResponse(), 1) {
		t.Fatal("unstable TAGS should report Inf")
	}
}

func TestOptimalCutoffsImproveOverNaive(t *testing.T) {
	size := dist.NewBoundedPareto(0.8, 60, 2e6)
	load := 0.5
	lambda := 2 * load / size.Moment(1)
	cuts, err := OptimalCutoffs(lambda, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAnalysis(lambda, size, cuts).MeanSlowdown()
	naive := NewAnalysis(lambda, size, []float64{size.Quantile(0.5)}).MeanSlowdown()
	if opt > naive {
		t.Fatalf("optimized %v worse than naive %v", opt, naive)
	}
	if math.IsInf(opt, 1) {
		t.Fatal("optimized cutoffs unstable")
	}
}

func TestTAGSBeatsSizeBlindBaselineAnalytically(t *testing.T) {
	// The point of TAGS: without size information it still crushes Random
	// (the size-blind baseline) by exploiting the heavy tail.
	size := dist.NewBoundedPareto(0.8, 60, 2e6)
	load := 0.5
	lambda := 2 * load / size.Moment(1)
	cuts, err := OptimalCutoffs(lambda, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	tagsS := NewAnalysis(lambda, size, cuts).MeanSlowdown()
	// Random split: each host an M/G/1 at rate lambda/2.
	randomQ := lambda / 2 * size.Moment(2) / (2 * (1 - load))
	randomS := 1 + randomQ*size.Moment(-1)
	if tagsS >= randomS {
		t.Fatalf("TAGS %v should beat Random %v", tagsS, randomS)
	}
}

func TestSimulateValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { Simulate(nil, []float64{5, 1}, 0) },
		func() {
			Simulate([]workload.Job{{Arrival: 5}, {Arrival: 1}}, []float64{10}, 0)
		},
		func() { NewAnalysis(0, dist.NewExponential(1), nil) },
		func() { NewAnalysis(1, dist.NewExponential(1), []float64{5, 1}) },
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
	// The cutoff search is reachable from CLI flags; bad host counts come
	// back as errors, not panics.
	if _, err := OptimalCutoffs(1, dist.NewExponential(1), 1); err == nil {
		t.Error("OptimalCutoffs(h=1): expected error")
	}
}

// TestSimulateRejectsBadWarmup checks that a warmup fraction outside
// [0, 1), NaN included, panics naming the value instead of silently
// counting no jobs (a fraction >= 1) or every job (NaN).
func TestSimulateRejectsBadWarmup(t *testing.T) {
	jobs := []workload.Job{{Arrival: 0, Size: 1}, {Arrival: 1, Size: 1}}
	for _, w := range []float64{math.NaN(), -0.1, 1, 2} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("warmup fraction %v", w); !strings.Contains(msg, want) {
					t.Errorf("warmup %v: panic %q, want one containing %q", w, msg, want)
				}
			}()
			Simulate(jobs, []float64{10}, w)
		}()
	}
}

func TestWasteGrowsAsCutoffShrinks(t *testing.T) {
	size := dist.NewBoundedPareto(1.2, 10, 1e5)
	jobs := mkJobs(30000, 0.4, 2, size, 5)
	lowCut := Simulate(jobs, []float64{size.Quantile(0.9)}, 0)
	highCut := Simulate(jobs, []float64{size.Quantile(0.999)}, 0)
	if lowCut.WasteFraction() <= highCut.WasteFraction() {
		t.Fatalf("waste with low cutoff (%v) should exceed high cutoff (%v)",
			lowCut.WasteFraction(), highCut.WasteFraction())
	}
}
