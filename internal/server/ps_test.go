package server

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sita/internal/dist"
	"sita/internal/sim"
	"sita/internal/workload"
)

func TestPSSingleJob(t *testing.T) {
	var recs []JobRecord
	sys := NewPS(1, toHost(0), func(r JobRecord) { recs = append(recs, r) })
	sys.Simulate(jobs([2]float64{0, 10}))
	if len(recs) != 1 {
		t.Fatalf("completed %d jobs", len(recs))
	}
	if recs[0].Departure != 10 || recs[0].Response() != 10 {
		t.Fatalf("lone PS job should finish at its size: %+v", recs[0])
	}
}

func TestPSTwoJobsShareExactly(t *testing.T) {
	// Two equal jobs arriving together each run at rate 1/2 and finish at
	// 2x their size.
	var recs []JobRecord
	sys := NewPS(1, toHost(0), func(r JobRecord) { recs = append(recs, r) })
	sys.Simulate(jobs([2]float64{0, 10}, [2]float64{0, 10}))
	if len(recs) != 2 {
		t.Fatalf("completed %d jobs", len(recs))
	}
	for _, r := range recs {
		if math.Abs(r.Departure-20) > 1e-9 {
			t.Fatalf("shared equal jobs should finish at 20, got %v", r.Departure)
		}
	}
}

func TestPSHandComputedSchedule(t *testing.T) {
	// Job A (size 4) at t=0; job B (size 1) at t=2.
	// 0-2: A alone, 2 units done (2 left).
	// 2-4: both at rate 1/2; at t=4 B has 0 left and departs.
	// 4-5: A alone finishes its last unit; departs at 5.
	var recs []JobRecord
	sys := NewPS(1, toHost(0), func(r JobRecord) { recs = append(recs, r) })
	sys.Simulate(jobs([2]float64{0, 4}, [2]float64{2, 1}))
	byID := map[int]JobRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	if math.Abs(byID[1].Departure-4) > 1e-9 {
		t.Fatalf("B departs at %v, want 4", byID[1].Departure)
	}
	if math.Abs(byID[0].Departure-5) > 1e-9 {
		t.Fatalf("A departs at %v, want 5", byID[0].Departure)
	}
}

func TestPSMatchesMG1PSFormula(t *testing.T) {
	// Simulated M/G/1-PS mean slowdown must approach 1/(1-rho) — the
	// insensitivity property — even for a heavy-tailed size distribution.
	size := dist.NewBoundedPareto(1.5, 1, 1e3)
	const load = 0.6
	lambda := load / size.Moment(1)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(8, 0), sim.NewRNG(8, 1))
	res := RunPS(src.Take(150000), Config{Hosts: 1, Policy: toHost(0), WarmupFraction: 0.1})
	want := 1 / (1 - load)
	if math.Abs(res.Slowdown.Mean()-want)/want > 0.08 {
		t.Fatalf("PS mean slowdown %v, want ~%v", res.Slowdown.Mean(), want)
	}
}

func TestPSFairnessAcrossSizes(t *testing.T) {
	// PS expected slowdown must be (nearly) independent of job size — the
	// paper's definition of perfect fairness.
	size := dist.NewBoundedPareto(1.2, 1, 1e4)
	const load = 0.7
	lambda := load / size.Moment(1)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(9, 0), sim.NewRNG(9, 1))
	cut := size.LoadCutoff(0.5)
	res := RunPS(src.Take(200000), Config{
		Hosts: 1, Policy: toHost(0), WarmupFraction: 0.1,
		SizeClass: func(s float64) int {
			if s <= cut {
				return 0
			}
			return 1
		},
	})
	if res.Classes == nil {
		t.Fatal("classes missing")
	}
	spread := res.Classes.MaxSpread()
	if spread > 1.5 {
		t.Fatalf("PS class-slowdown spread = %v, want near 1 (fair)", spread)
	}
}

func TestPSWorkConservation(t *testing.T) {
	size := dist.NewExponential(2)
	lambda := workload.RateForLoad(0.8, size.Moment(1), 2)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(10, 0), sim.NewRNG(10, 1))
	js := src.Take(20000)
	res := RunPS(js, Config{Hosts: 2, Policy: goldenLWL{}})
	if res.Slowdown.Count() != int64(len(js)) {
		t.Fatalf("completed %d of %d", res.Slowdown.Count(), len(js))
	}
	var total, done float64
	for _, j := range js {
		total += j.Size
	}
	for _, w := range res.PerHostWork {
		done += w
	}
	if math.Abs(total-done) > 1e-6*total {
		t.Fatalf("work not conserved: %v vs %v", done, total)
	}
}

func TestPSSlowdownAtLeastOne(t *testing.T) {
	size := dist.NewBoundedPareto(1.1, 1, 1e4)
	lambda := workload.RateForLoad(0.7, size.Moment(1), 2)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(11, 0), sim.NewRNG(11, 1))
	res := RunPS(src.Take(20000), Config{Hosts: 2, Policy: goldenLWL{}})
	if res.Slowdown.Min() < 1 {
		t.Fatalf("PS slowdown %v < 1", res.Slowdown.Min())
	}
}

func TestPSViewMethods(t *testing.T) {
	probe := &psProbe{t: t}
	sys := NewPS(2, probe, nil)
	sys.Simulate(jobs([2]float64{0, 10}, [2]float64{1, 10}))
	if !probe.sawResident {
		t.Fatal("probe never observed a resident job")
	}
}

type psProbe struct {
	t           *testing.T
	n           int
	sawResident bool
}

func (*psProbe) Name() string { return "ps-probe" }
func (p *psProbe) Assign(_ workload.Job, v View) int {
	if p.n == 1 {
		if v.NumJobs(0) != 1 {
			p.t.Errorf("host 0 jobs = %d, want 1", v.NumJobs(0))
		}
		if got := v.WorkLeft(0); math.Abs(got-9) > 1e-9 {
			p.t.Errorf("host 0 work left = %v, want 9", got)
		}
		if v.Idle(0) || !v.Idle(1) {
			p.t.Error("idle flags wrong")
		}
		p.sawResident = true
	}
	p.n++
	return 0
}

func TestPSValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewPS(0, toHost(0), nil) },
		func() { NewPS(1, nil, nil) },
		func() { RunPS(nil, Config{Hosts: 0, Policy: toHost(0)}) },
		func() {
			sys := NewPS(1, toHost(5), nil)
			sys.Simulate(jobs([2]float64{0, 1}))
		},
		func() {
			sys := NewPS(1, toHost(0), nil)
			sys.Simulate(jobs([2]float64{5, 1}, [2]float64{1, 1}))
		},
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

// TestRunPSRejectsPullPolicy checks that a pull policy under PS panics
// naming the policy and the missing central queue, rather than reporting
// host -1 as out of range.
func TestRunPSRejectsPullPolicy(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{`"pull"`, "pull policy", "no central queue"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q, want one containing %q", msg, want)
			}
		}
	}()
	// The second job arrives while the only host is busy, so pull holds it.
	RunPS(jobs([2]float64{0, 5}, [2]float64{1, 1}), Config{Hosts: 1, Policy: pull{}})
}

// TestRunPSRejectsBadWarmup checks that RunPS holds Run's warmup
// contract: a fraction outside [0, 1), NaN included, panics naming the
// value — with or without kept records — instead of counting every job
// (NaN) or failing to size the record slice.
func TestRunPSRejectsBadWarmup(t *testing.T) {
	for _, w := range []float64{math.NaN(), -0.1, 1} {
		for _, keep := range []bool{false, true} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if want := fmt.Sprintf("warmup fraction %v", w); !strings.Contains(msg, want) {
						t.Errorf("warmup %v, KeepRecords %v: panic %q, want one containing %q", w, keep, msg, want)
					}
				}()
				RunPS(jobs([2]float64{0, 1}, [2]float64{1, 1}),
					Config{Hosts: 1, Policy: toHost(0), WarmupFraction: w, KeepRecords: keep})
			}()
		}
	}
}
