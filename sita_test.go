package sita

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sita/internal/trace"
)

func TestLoadWorkloadProfiles(t *testing.T) {
	for _, name := range []string{"psc-c90", "psc-j90", "ctc-sp2"} {
		wl, err := LoadWorkload(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wl.Trace.Len() == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		if wl.Size.Moment(1) <= 0 {
			t.Fatalf("%s: bad size distribution", name)
		}
	}
	if _, err := LoadWorkload("nope", 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	wl, err := LoadWorkload("psc-c90", 42)
	if err != nil {
		t.Fatal(err)
	}
	design, err := NewDesign(SITAUFair, 0.7, wl.Size, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := wl.JobsAtLoad(0.7, 2, true, 42)[:20000]
	res := SimulateOpts(design.Policy(), jobs, 2, SimOptions{Warmup: 0.1})
	if res.Slowdown.Count() == 0 {
		t.Fatal("no observations")
	}
	if res.Slowdown.Mean() < 1 {
		t.Fatalf("mean slowdown %v < 1", res.Slowdown.Mean())
	}
	// The unbalancing design should beat SITA-E on the same jobs.
	e, err := NewDesign(SITAE, 0.7, wl.Size, 2)
	if err != nil {
		t.Fatal(err)
	}
	resE := SimulateOpts(e.Policy(), jobs, 2, SimOptions{Warmup: 0.1})
	if res.Slowdown.Mean() >= resE.Slowdown.Mean() {
		t.Fatalf("SITA-U-fair (%v) should beat SITA-E (%v)",
			res.Slowdown.Mean(), resE.Slowdown.Mean())
	}
}

func TestBaselinePoliciesComplete(t *testing.T) {
	ps := BaselinePolicies(1)
	for _, name := range []string{"Random", "Round-Robin", "Shortest-Queue", "Least-Work-Left", "Central-Queue"} {
		p, ok := ps[name]
		if !ok {
			t.Fatalf("missing baseline %q", name)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
}

func TestPredict(t *testing.T) {
	wl, err := LoadWorkload("psc-c90", 1)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Predict("Random", 0.7, wl.Size, 2)
	if err != nil {
		t.Fatal(err)
	}
	sitaE, err := Predict("SITA-E", 0.7, wl.Size, 2)
	if err != nil {
		t.Fatal(err)
	}
	fair, err := Predict("SITA-U-fair", 0.7, wl.Size, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(random > sitaE && sitaE > fair) {
		t.Fatalf("prediction ordering: random=%v sitaE=%v fair=%v", random, sitaE, fair)
	}
	lwl, err := Predict("Central-Queue", 0.7, wl.Size, 2)
	if err != nil {
		t.Fatal(err)
	}
	lwl2, err := Predict("Least-Work-Left", 0.7, wl.Size, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lwl != lwl2 {
		t.Fatal("CQ and LWL predictions should coincide")
	}
	if _, err := Predict("nonesuch", 0.7, wl.Size, 2); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Predict("SITA-E", 0.7, wl.Size, 4); err == nil {
		t.Fatal("4-host closed-form SITA prediction should be rejected")
	}
}

// TestPredictLWLManyHosts checks the Least-Work-Left prediction where
// a^h/h! overflows float64: it stays finite, and adding hosts at a fixed
// per-host load never raises the mean slowdown.
func TestPredictLWLManyHosts(t *testing.T) {
	wl, err := LoadWorkload("psc-c90", 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, h := range []int{512, 1024, 4096} {
		m, err := Predict("lwl", 0.9, wl.Size, h)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(m) || math.IsInf(m, 0) || m > prev {
			t.Fatalf("Predict(lwl, 0.9, %d hosts) = %v after %v", h, m, prev)
		}
		prev = m
	}
}

// TestPredictAndCompareRejectBadSystems checks that the two analytic and
// comparison entry points answer a load outside (0, 1), NaN included, or
// fewer than one host with an error rather than a panic or a NaN, and
// that a known policy without a closed form is not called unknown.
func TestPredictAndCompareRejectBadSystems(t *testing.T) {
	wl, err := LoadWorkload("psc-c90", 1)
	if err != nil {
		t.Fatal(err)
	}
	type system struct {
		load  float64
		hosts int
	}
	bad := []system{{0, 2}, {-0.5, 2}, {1, 2}, {1.5, 2}, {math.NaN(), 2}, {0.7, 0}, {0.7, -1}}
	for _, name := range []string{"Random", "Round-Robin", "Least-Work-Left", "Central-Queue", "SITA-E", "SITA-U-fair"} {
		for _, sys := range bad {
			if m, err := Predict(name, sys.load, wl.Size, sys.hosts); err == nil {
				t.Errorf("Predict(%q, load %v, %d hosts) = %v, want an error", name, sys.load, sys.hosts, m)
			}
		}
	}
	if _, err := Predict("Shortest-Queue", 0.7, wl.Size, 2); err == nil || !strings.Contains(err.Error(), "no closed form") {
		t.Errorf("Predict(Shortest-Queue) error %v, want one saying it has no closed form", err)
	}
	for _, sys := range bad {
		if out, err := Compare(wl, sys.load, sys.hosts, 2000, 1); err == nil {
			t.Errorf("Compare(load %v, %d hosts) returned %d outcomes, want an error", sys.load, sys.hosts, len(out))
		}
	}
}

func TestWorkloadFromSWFRoundTrip(t *testing.T) {
	wl, err := LoadWorkload("ctc-sp2", 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	small := trace.New("small", wl.Trace.Jobs()[:2000])
	if err := trace.WriteSWF(small, f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	back, err := WorkloadFromSWF(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trace.Len() != 2000 {
		t.Fatalf("roundtrip len = %d", back.Trace.Len())
	}
	st := back.Trace.ComputeStats()
	if math.Abs(back.Size.Moment(1)-st.Mean)/st.Mean > 0.01 {
		t.Fatalf("calibrated mean %v vs trace mean %v", back.Size.Moment(1), st.Mean)
	}
	if _, err := WorkloadFromSWF(filepath.Join(dir, "missing.swf")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestExperimentFacade(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Jobs = 4000
	cfg.Loads = []float64{0.5}
	tables, err := Experiment("fig5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	if _, err := Experiment("nope", cfg); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	ids := ExperimentIDs()
	if len(ids) < 13 {
		t.Fatalf("expected at least 13 experiment ids, got %d", len(ids))
	}
}

func TestSimulatePSFacade(t *testing.T) {
	wl, err := LoadWorkload("psc-c90", 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := wl.JobsAtLoad(0.5, 2, true, 2)[:5000]
	res := SimulatePS(NewRandomPolicy(NewRNG(2, 50)), jobs, 2, SimOptions{Warmup: 0.1})
	if res.Slowdown.Count() == 0 {
		t.Fatal("no PS observations")
	}
	if res.Slowdown.Min() < 1 {
		t.Fatalf("PS slowdown %v < 1", res.Slowdown.Min())
	}
}

// TestSimulatePSRejectsCentralQueue pins SimulatePS's documented panic
// for a pull policy.
func TestSimulatePSRejectsCentralQueue(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"Central-Queue" is a pull policy`) || !strings.Contains(msg, "no central queue") {
			t.Errorf("panic %q, want one naming Central-Queue as a pull policy with no central queue", msg)
		}
	}()
	jobs := []Job{{ID: 0, Arrival: 0, Size: 5}, {ID: 1, Arrival: 1, Size: 1}, {ID: 2, Arrival: 1.5, Size: 1}}
	SimulatePS(NewCentralQueuePolicy(), jobs, 2, SimOptions{})
}

func TestTAGSFacade(t *testing.T) {
	wl, err := LoadWorkload("psc-c90", 3)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 2 * 0.4 / wl.Size.Moment(1)
	cuts, err := OptimalTAGSCutoffs(lambda, wl.Size, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewTAGSAnalysis(lambda, wl.Size, cuts)
	if !a.Feasible() {
		t.Fatal("optimized TAGS cutoffs infeasible")
	}
	jobs := wl.JobsAtLoad(0.4, 2, true, 3)[:15000]
	res := SimulateTAGS(jobs, cuts, 0.1)
	if res.Slowdown.Count() == 0 {
		t.Fatal("no TAGS observations")
	}
	pred := a.MeanSlowdown()
	got := res.Slowdown.Mean()
	if got > pred*5 || got < pred/5 {
		t.Fatalf("TAGS simulated %v vs predicted %v (off > 5x)", got, pred)
	}
}

func TestCompare(t *testing.T) {
	wl, err := LoadWorkload("psc-c90", 6)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := Compare(wl, 0.7, 2, 15000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) < 8 {
		t.Fatalf("only %d outcomes", len(outcomes))
	}
	// Sorted best-first, and the winner is a SITA-U variant.
	for i := 1; i < len(outcomes); i++ {
		if outcomes[i].MeanSlowdown < outcomes[i-1].MeanSlowdown {
			t.Fatal("outcomes not sorted")
		}
	}
	best := outcomes[0].Name
	if best != "SITA-U-opt" && best != "SITA-U-fair" {
		t.Fatalf("winner = %q, expected a SITA-U variant", best)
	}
	// Central-Queue and LWL tie exactly.
	byName := map[string]PolicyOutcome{}
	for _, o := range outcomes {
		byName[o.Name] = o
	}
	if byName["Central-Queue"].MeanSlowdown != byName["Least-Work-Left"].MeanSlowdown {
		t.Fatal("CQ and LWL should coincide")
	}
	// SITA designs carry fairness data; baselines don't.
	if byName["SITA-U-fair"].ShortMean == 0 {
		t.Fatal("SITA-U-fair missing class means")
	}
	if byName["Random"].ShortMean != 0 {
		t.Fatal("Random should not have class means")
	}
	if !byName["Random"].HasPrediction {
		t.Fatal("Random should carry an analytic prediction")
	}
	if _, err := Compare(nil, 0.5, 2, 0, 1); err == nil {
		t.Fatal("nil workload accepted")
	}
}
