package server

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sita/internal/dist"
	"sita/internal/sim"
	"sita/internal/workload"
)

// toHost always assigns to a fixed host.
type toHost int

func (toHost) Name() string                    { return "fixed" }
func (h toHost) Assign(workload.Job, View) int { return int(h) }

// pull always holds jobs centrally.
type pull struct{}

func (pull) Name() string { return "pull" }
func (pull) Assign(_ workload.Job, v View) int {
	for i := 0; i < v.Hosts(); i++ {
		if v.Idle(i) {
			return i
		}
	}
	return Central
}

func jobs(list ...[2]float64) []workload.Job {
	out := make([]workload.Job, len(list))
	for i, a := range list {
		out[i] = workload.Job{ID: i, Arrival: a[0], Size: a[1]}
	}
	return out
}

func TestSingleHostFCFS(t *testing.T) {
	// Three jobs on one host: classic FCFS hand calculation.
	var recs []JobRecord
	sys := New(1, toHost(0), func(r JobRecord) { recs = append(recs, r) })
	sys.Simulate(jobs([2]float64{0, 10}, [2]float64{2, 5}, [2]float64{20, 1}))
	if len(recs) != 3 {
		t.Fatalf("completed %d jobs, want 3", len(recs))
	}
	// Job 0: starts 0, departs 10. Job 1: waits until 10, departs 15.
	// Job 2: arrives 20 to an idle host, departs 21.
	want := [][3]float64{{0, 10, 10}, {10, 15, 5}, {20, 21, 1}}
	for i, w := range want {
		r := recs[i]
		if r.Start != w[0] || r.Departure != w[1] {
			t.Errorf("job %d: start %v departure %v, want %v %v", i, r.Start, r.Departure, w[0], w[1])
		}
	}
	if got := recs[1].Wait(); got != 8 {
		t.Errorf("job 1 wait = %v, want 8", got)
	}
	if got := recs[1].Slowdown(); got != 13.0/5 {
		t.Errorf("job 1 slowdown = %v, want 2.6", got)
	}
}

func TestSlowdownAtLeastOne(t *testing.T) {
	src := workload.NewSource(workload.NewPoisson(0.5),
		workload.DistSizes{D: dist.NewBoundedPareto(1.1, 1, 1e4)},
		sim.NewRNG(1, 0), sim.NewRNG(1, 1))
	sys := New(2, toHost(0), func(r JobRecord) {
		if r.Slowdown() < 1 {
			t.Fatalf("slowdown %v < 1 for job %d", r.Slowdown(), r.ID)
		}
		if r.Start < r.Arrival {
			t.Fatalf("job %d starts before arrival", r.ID)
		}
	})
	sys.Simulate(src.Take(5000))
}

func TestFCFSOrderPreservedPerHost(t *testing.T) {
	// Departure order on a host must follow arrival order of its jobs.
	lastDeparture := map[int]float64{}
	lastArrival := map[int]float64{}
	sys := New(3, toHost(1), func(r JobRecord) {
		if r.Departure < lastDeparture[r.Host] {
			t.Fatalf("departures out of order on host %d", r.Host)
		}
		if r.Arrival < lastArrival[r.Host] {
			t.Fatalf("service order violates arrival order on host %d", r.Host)
		}
		lastDeparture[r.Host] = r.Departure
		lastArrival[r.Host] = r.Arrival
	})
	src := workload.NewSource(workload.NewPoisson(1),
		workload.DistSizes{D: dist.NewExponential(1)},
		sim.NewRNG(2, 0), sim.NewRNG(2, 1))
	sys.Simulate(src.Take(3000))
}

func TestCentralQueueDrainsIdleHosts(t *testing.T) {
	var recs []JobRecord
	sys := New(2, pull{}, func(r JobRecord) { recs = append(recs, r) })
	// Two long jobs occupy both hosts; two short jobs queue centrally and
	// start when hosts free, in FCFS order.
	sys.Simulate(jobs(
		[2]float64{0, 10}, [2]float64{0, 20},
		[2]float64{1, 1}, [2]float64{2, 1},
	))
	if len(recs) != 4 {
		t.Fatalf("completed %d jobs, want 4", len(recs))
	}
	byID := map[int]JobRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	// Job 2 starts when host 0 frees at t=10; job 3 follows at t=11.
	if byID[2].Start != 10 || byID[3].Start != 11 {
		t.Fatalf("central queue starts %v, %v; want 10, 11", byID[2].Start, byID[3].Start)
	}
}

func TestWorkLeftAndNumJobsViews(t *testing.T) {
	sys := New(2, toHost(0), nil)
	sys.Simulate(nil) // initialize
	if sys.WorkLeft(0) != 0 || sys.NumJobs(0) != 0 || !sys.Idle(0) {
		t.Fatal("fresh system should be idle")
	}
	// Probe views mid-simulation via a policy.
	probe := probePolicy{t: t}
	sys2 := New(2, &probe, nil)
	sys2.Simulate(jobs([2]float64{0, 10}, [2]float64{1, 10}, [2]float64{2, 3}))
	if !probe.sawBacklog {
		t.Fatal("policy never observed a backlog")
	}
}

type probePolicy struct {
	t          *testing.T
	n          int
	sawBacklog bool
}

func (*probePolicy) Name() string { return "probe" }

func (p *probePolicy) Assign(j workload.Job, v View) int {
	switch p.n {
	case 0:
		if v.WorkLeft(0) != 0 {
			p.t.Errorf("first arrival: work left %v, want 0", v.WorkLeft(0))
		}
	case 1:
		// t=1: host 0 has 9 seconds of its first job left.
		if math.Abs(v.WorkLeft(0)-9) > 1e-9 {
			p.t.Errorf("second arrival: work left %v, want 9", v.WorkLeft(0))
		}
		if v.NumJobs(0) != 1 {
			p.t.Errorf("second arrival: jobs %d, want 1", v.NumJobs(0))
		}
	case 2:
		// t=2: host 0 holds both earlier jobs: 8 + 10 = 18 left.
		if math.Abs(v.WorkLeft(0)-18) > 1e-9 {
			p.t.Errorf("third arrival: work left %v, want 18", v.WorkLeft(0))
		}
		if v.NumJobs(0) != 2 {
			p.t.Errorf("third arrival: jobs %d, want 2", v.NumJobs(0))
		}
		p.sawBacklog = true
	}
	p.n++
	return 0
}

func TestRunResultAggregation(t *testing.T) {
	js := jobs([2]float64{0, 2}, [2]float64{0, 2}, [2]float64{1, 2})
	res := Run(js, Config{Hosts: 1, Policy: toHost(0), KeepRecords: true})
	if res.Slowdown.Count() != 3 {
		t.Fatalf("slowdown count = %d, want 3", res.Slowdown.Count())
	}
	// Host 0 did all the work: 6 seconds over horizon 6.
	if res.Horizon != 6 {
		t.Fatalf("horizon = %v, want 6", res.Horizon)
	}
	if got := res.Utilization(0); got != 1 {
		t.Fatalf("utilization = %v, want 1", got)
	}
	if fr := res.LoadFractions(); fr[0] != 1 {
		t.Fatalf("load fraction = %v, want 1", fr[0])
	}
	if len(res.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(res.Records))
	}
}

func TestRunWarmupDiscards(t *testing.T) {
	js := jobs([2]float64{0, 1}, [2]float64{10, 1}, [2]float64{20, 1}, [2]float64{30, 1})
	res := Run(js, Config{Hosts: 1, Policy: toHost(0), WarmupFraction: 0.5})
	if res.Slowdown.Count() != 2 {
		t.Fatalf("warmup kept %d observations, want 2", res.Slowdown.Count())
	}
	// Load accounting still covers all jobs.
	if res.PerHostJobs[0] != 4 {
		t.Fatalf("per-host jobs = %d, want 4", res.PerHostJobs[0])
	}
}

// TestRunSizeClassTally counts per-class observations on every path —
// direct, engine and PS. The first job is the warmup prefix and the only
// one of its class, so that class must stay absent from each tally.
func TestRunSizeClassTally(t *testing.T) {
	js := jobs([2]float64{0, giantSize}, [2]float64{1, 1}, [2]float64{2, 100}, [2]float64{3, 1})
	cfg := Config{
		Hosts:          2,
		Policy:         sizeSplit{},
		WarmupFraction: 0.25,
		SizeClass: func(s float64) int {
			switch {
			case s >= giantSize:
				return 2
			case s <= 10:
				return 0
			}
			return 1
		},
	}
	engine := cfg
	engine.OrderCheck = true
	for name, res := range map[string]*Result{
		"direct": Run(js, cfg),
		"engine": Run(js, engine),
		"ps":     RunPS(js, cfg),
	} {
		if res.Classes == nil {
			t.Fatalf("%s: classes not collected", name)
		}
		if got := res.Classes.Classes(); !slices.Equal(got, []int{0, 1}) {
			t.Fatalf("%s: classes %v, want [0 1]", name, got)
		}
		if res.Classes.Class(0).Count() != 2 || res.Classes.Class(1).Count() != 1 {
			t.Fatalf("%s: class counts wrong", name)
		}
	}
}

// sizeSplit routes by size alone: a work policy, so plain Run takes the
// direct path.
type sizeSplit struct{}

func (sizeSplit) Name() string { return "split" }
func (sizeSplit) Assign(j workload.Job, _ WorkView) int {
	if j.Size <= 10 {
		return 0
	}
	return 1
}

func TestRunMG1AgainstPollaczekKhinchine(t *testing.T) {
	// A 1-host system under Poisson arrivals is an M/G/1 queue; the
	// simulated mean wait must match the PK formula. This validates the
	// entire simulation pipeline end to end.
	size := dist.NewBoundedPareto(1.5, 1, 1e3)
	lambda := 0.5 / size.Moment(1)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(5, 0), sim.NewRNG(5, 1))
	res := Run(src.Take(400000), Config{Hosts: 1, Policy: toHost(0), WarmupFraction: 0.1})
	wantW := lambda * size.Moment(2) / (2 * (1 - 0.5))
	if math.Abs(res.Wait.Mean()-wantW)/wantW > 0.08 {
		t.Fatalf("simulated E[W] = %v, PK = %v", res.Wait.Mean(), wantW)
	}
	wantS := 1 + wantW*size.Moment(-1)
	if math.Abs(res.Slowdown.Mean()-wantS)/wantS > 0.08 {
		t.Fatalf("simulated E[S] = %v, analytic = %v", res.Slowdown.Mean(), wantS)
	}
}

func TestUnsortedJobsPanic(t *testing.T) {
	sys := New(1, toHost(0), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted arrivals")
		}
	}()
	sys.Simulate(jobs([2]float64{5, 1}, [2]float64{1, 1}))
}

func TestConfigValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { New(0, toHost(0), nil) },
		func() { New(1, nil, nil) },
		func() { Run(nil, Config{Hosts: 0, Policy: toHost(0)}) },
		func() { Run(nil, Config{Hosts: 1, Policy: toHost(0), WarmupFraction: 1}) },
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

// nameOnly is a Policy of neither kind: it has no Assign.
type nameOnly struct{}

func (nameOnly) Name() string { return "name-only" }

// TestPolicyOfNeitherKindPanics checks that every entry point refuses a
// policy that is neither a WorkPolicy nor a StatePolicy, naming it.
func TestPolicyOfNeitherKindPanics(t *testing.T) {
	js := jobs([2]float64{0, 1})
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Run", func() { Run(js, Config{Hosts: 1, Policy: nameOnly{}}) }},
		{"RunPS", func() { RunPS(js, Config{Hosts: 1, Policy: nameOnly{}}) }},
		{"New", func() { New(1, nameOnly{}, nil) }},
		{"NewPS", func() { NewPS(1, nameOnly{}, nil) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"name-only"`) || !strings.Contains(msg, "neither a WorkPolicy nor a StatePolicy") {
					t.Errorf("%s: panic %q, want one naming the policy and its missing kind", c.name, msg)
				}
			}()
			c.fn()
		}()
	}
}

func TestBadPolicyIndexPanics(t *testing.T) {
	sys := New(2, toHost(7), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range host")
		}
	}()
	sys.Simulate(jobs([2]float64{0, 1}))
}

// TestKeptRecordsPresized checks that every simulation path sizes
// Result.Records for the jobs past the warmup prefix up front, so keeping
// records never grows the slice.
func TestKeptRecordsPresized(t *testing.T) {
	jobs := goldenJobs(42, 3000)
	cfg := Config{Hosts: 3, Policy: indexedLWL{}, WarmupFraction: 0.1, KeepRecords: true}
	want := len(jobs) - int(cfg.WarmupFraction*float64(len(jobs)))
	engine := cfg
	engine.OrderCheck = true
	for name, res := range map[string]*Result{
		"direct": runDirect(jobs, cfg),
		"engine": Run(jobs, engine),
		"ps":     RunPS(jobs, cfg),
	} {
		if len(res.Records) != want || cap(res.Records) != want {
			t.Errorf("%s: %d records in a slice of capacity %d, want %d of %d",
				name, len(res.Records), cap(res.Records), want, want)
		}
	}
}

// TestInterruptCadence pins how far an engine run gets when its Interrupt
// trips on the third poll, one poll every defaultInterruptEvery fired
// events. Every arrival, departure and popped PS completion (canceled or
// not) advances the probe, so the completed-job counts below move if the
// kernel ever changes which entries it counts — the probe's cadence on
// the serving path (Config.Interrupt) would then change with it.
func TestInterruptCadence(t *testing.T) {
	jobs := goldenJobs(47, 20000)
	for _, tc := range []struct {
		name string
		run  func([]workload.Job, Config) *Result
		cfg  Config
		want int64
	}{
		{"fcfs-lwl", Run, Config{Hosts: 3, Policy: goldenLWL{}}, 6105},
		{"fcfs-central-sjf", Run, Config{Hosts: 3, Policy: toCentral{}, CentralOrder: CentralSJF}, 6138},
		{"ps-lwl", RunPS, Config{Hosts: 2, Policy: goldenLWL{}}, 3737},
	} {
		polls := 0
		tc.cfg.Interrupt = func() bool { polls++; return polls == 3 }
		res := tc.run(jobs, tc.cfg)
		var done int64
		for _, n := range res.PerHostJobs {
			done += n
		}
		if !res.Interrupted || polls != 3 || done != tc.want {
			t.Errorf("%s: interrupted %v after %d polls with %d jobs done, want true, 3, %d",
				tc.name, res.Interrupted, polls, done, tc.want)
		}
	}
}
