package server

import (
	"math"
	"testing"
	"testing/quick"

	"sita/internal/dist"
	"sita/internal/queueing"
	"sita/internal/sim"
	"sita/internal/workload"
)

// TestWorkLeftAfterDequeue is a regression test for a double-counting bug:
// a queued job's size was added to the host's backlog both on arrival and
// again when the job was dequeued, inflating WorkLeft and corrupting
// Least-Work-Left decisions.
func TestWorkLeftAfterDequeue(t *testing.T) {
	probe := &dequeueProbe{t: t}
	simulate(1, probe, jobs(
		[2]float64{0, 10}, // runs 0-10
		[2]float64{1, 5},  // queued, runs 10-15
		[2]float64{12, 1}, // arrives mid-second-job: backlog must be 3
	), nil)
	if !probe.checked {
		t.Fatal("probe never reached the third arrival")
	}
}

type dequeueProbe struct {
	t       *testing.T
	n       int
	checked bool
}

func (*dequeueProbe) Name() string { return "dequeue-probe" }

func (p *dequeueProbe) Assign(j workload.Job, v View) int {
	if p.n == 2 {
		if got := v.WorkLeft(0); math.Abs(got-3) > 1e-9 {
			p.t.Errorf("work left after dequeue = %v, want 3", got)
		}
		if got := v.NumJobs(0); got != 1 {
			p.t.Errorf("jobs after dequeue = %d, want 1", got)
		}
		p.checked = true
	}
	p.n++
	return 0
}

func TestWorkConservationProperty(t *testing.T) {
	// Completed work per host must sum exactly to the total job size mass,
	// and every job completes, for random workloads and host counts.
	size := dist.NewBoundedPareto(1.3, 1, 1e4)
	f := func(seed uint64, hostsRaw uint8) bool {
		hosts := 1 + int(hostsRaw)%7
		lambda := workload.RateForLoad(0.8, size.Moment(1), hosts)
		src := workload.NewSource(workload.NewPoisson(lambda),
			workload.DistSizes{D: size},
			sim.NewRNG(seed, 0), sim.NewRNG(seed, 1))
		js := src.Take(2000)
		res := Run(js, Config{Hosts: hosts, Policy: goldenLWL{}})
		if res.Slowdown.Count() != int64(len(js)) {
			return false
		}
		var total, done float64
		for _, j := range js {
			total += j.Size
		}
		for _, w := range res.PerHostWork {
			done += w
		}
		return math.Abs(total-done) < 1e-6*total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationNeverExceedsOne(t *testing.T) {
	size := dist.NewBoundedPareto(1.1, 1, 1e5)
	lambda := workload.RateForLoad(0.9, size.Moment(1), 2)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(3, 0), sim.NewRNG(3, 1))
	res := Run(src.Take(30000), Config{Hosts: 2, Policy: goldenLWL{}})
	for i := 0; i < 2; i++ {
		if u := res.Utilization(i); u > 1+1e-9 {
			t.Errorf("host %d utilization %v > 1", i, u)
		}
	}
}

func TestResponseDecomposition(t *testing.T) {
	// response = wait + size exactly, for every record.
	size := dist.NewExponential(3)
	lambda := workload.RateForLoad(0.7, size.Moment(1), 2)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(4, 0), sim.NewRNG(4, 1))
	res := Run(src.Take(5000), Config{Hosts: 2, Policy: goldenLWL{}, KeepRecords: true})
	for _, r := range res.Records {
		if math.Abs(r.Response()-(r.Wait()+r.Size)) > 1e-12 {
			t.Fatalf("job %d: response %v != wait %v + size %v", r.ID, r.Response(), r.Wait(), r.Size)
		}
		if r.Wait() < 0 {
			t.Fatalf("job %d: negative wait %v", r.ID, r.Wait())
		}
	}
}

func TestLoadFractionsSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		size := dist.NewBoundedPareto(1.2, 1, 1e3)
		lambda := workload.RateForLoad(0.6, size.Moment(1), 3)
		src := workload.NewSource(workload.NewPoisson(lambda),
			workload.DistSizes{D: size},
			sim.NewRNG(seed, 0), sim.NewRNG(seed, 1))
		res := Run(src.Take(1000), Config{Hosts: 3, Policy: goldenLWL{}})
		sum := 0.0
		for _, fr := range res.LoadFractions() {
			if fr < 0 {
				return false
			}
			sum += fr
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestEmptyRunLoadFractions(t *testing.T) {
	res := Run(nil, Config{Hosts: 2, Policy: goldenLWL{}})
	fr := res.LoadFractions()
	if fr[0] != 0 || fr[1] != 0 {
		t.Fatalf("empty run load fractions %v, want zeros", fr)
	}
	if res.Utilization(0) != 0 {
		t.Fatal("empty run utilization should be 0")
	}
}

// TestSlowdownVarianceAgainstTakacs validates the full second-moment
// analysis chain (Takacs E[W^2] + E[1/X^2] factorization) against a long
// simulation of a single M/G/1 host.
func TestSlowdownVarianceAgainstTakacs(t *testing.T) {
	size := dist.NewBoundedPareto(1.6, 1, 500) // light enough tail for stable Var estimates
	const load = 0.5
	lambda := load / size.Moment(1)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(14, 0), sim.NewRNG(14, 1))
	res := Run(src.Take(600000), Config{Hosts: 1, Policy: goldenLWL{}, WarmupFraction: 0.1})

	q := queueing.NewMG1(lambda, size)
	wantMean := q.MeanSlowdown()
	wantVar := q.SlowdownVariance()
	if got := res.Slowdown.Mean(); math.Abs(got-wantMean)/wantMean > 0.05 {
		t.Fatalf("mean slowdown %v vs analytic %v", got, wantMean)
	}
	if got := res.Slowdown.Variance(); math.Abs(got-wantVar)/wantVar > 0.25 {
		t.Fatalf("slowdown variance %v vs analytic %v (off > 25%%)", got, wantVar)
	}
}

// TestLittlesLaw checks E[Q] = lambda * E[W] (theorem 1) on the simulated
// waiting room: time-averaged waiting jobs vs arrival rate times mean wait.
func TestLittlesLaw(t *testing.T) {
	size := dist.NewBoundedPareto(1.5, 1, 1e3)
	const load = 0.6
	lambda := load / size.Moment(1)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(17, 0), sim.NewRNG(17, 1))
	jobs := src.Take(300000)

	res := simulate(1, goldenLWL{}, jobs, nil)
	realizedLambda := float64(len(jobs)) / res.Horizon
	littles := realizedLambda * res.Wait.Mean()
	measured := res.MeanQueueLen
	if math.Abs(measured-littles)/littles > 0.02 {
		t.Fatalf("Little's law violated: E[Q] measured %v vs lambda*E[W] %v", measured, littles)
	}
}
