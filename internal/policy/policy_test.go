package policy

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"sita/internal/dist"
	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/workload"
)

func poissonJobs(n int, load float64, hosts int, size dist.Distribution, seed uint64) []workload.Job {
	lambda := workload.RateForLoad(load, size.Moment(1), hosts)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(seed, 0), sim.NewRNG(seed, 1))
	return src.Take(n)
}

func TestRandomSpreadsJobs(t *testing.T) {
	size := dist.NewExponential(1)
	jobs := poissonJobs(20000, 0.5, 4, size, 1)
	res := server.Run(jobs, server.Config{Hosts: 4, Policy: NewRandom(sim.NewRNG(1, 5))})
	for i, n := range res.PerHostJobs {
		if math.Abs(float64(n)-5000) > 500 {
			t.Errorf("host %d got %d jobs, want ~5000", i, n)
		}
	}
}

func TestRoundRobinExactCycle(t *testing.T) {
	size := dist.Deterministic{Value: 1}
	jobs := poissonJobs(4000, 0.5, 4, size, 2)
	res := server.Run(jobs, server.Config{Hosts: 4, Policy: NewRoundRobin()})
	for i, n := range res.PerHostJobs {
		if n != 1000 {
			t.Errorf("host %d got %d jobs, want exactly 1000", i, n)
		}
	}
}

func TestShortestQueuePrefersEmptyHost(t *testing.T) {
	// Two simultaneous arrivals: first to host 0, second must go to host 1.
	jobs := []workload.Job{
		{ID: 0, Arrival: 0, Size: 10},
		{ID: 1, Arrival: 0.1, Size: 10},
	}
	res := server.Run(jobs, server.Config{Hosts: 2, Policy: NewShortestQueue(), KeepRecords: true})
	if res.Records[0].Host == res.Records[1].Host {
		t.Fatal("shortest-queue stacked both jobs on one host")
	}
}

func TestLeastWorkLeftPicksSmallestBacklog(t *testing.T) {
	// Host 0 gets a 100s job, host 1 a 1s job; the third job (arriving at
	// t=0.5) must go to host 1.
	jobs := []workload.Job{
		{ID: 0, Arrival: 0, Size: 100},
		{ID: 1, Arrival: 0.1, Size: 1},
		{ID: 2, Arrival: 0.5, Size: 5},
	}
	res := server.Run(jobs, server.Config{Hosts: 2, Policy: NewLeastWorkLeft(), KeepRecords: true})
	byID := map[int]server.JobRecord{}
	for _, r := range res.Records {
		byID[r.ID] = r
	}
	if byID[2].Host != 1 {
		t.Fatalf("job 2 went to host %d, want 1 (least work left)", byID[2].Host)
	}
}

func TestCentralQueueEquivalentToLWL(t *testing.T) {
	// The paper (citing [11]) uses the equivalence of Central-Queue and
	// Least-Work-Left to simulate only the latter. Verify the per-job
	// response times coincide on random Poisson/Bounded-Pareto inputs.
	size := dist.NewBoundedPareto(1.1, 1, 1e4)
	f := func(seed uint64, hostsRaw uint8) bool {
		hosts := 2 + int(hostsRaw)%6
		jobs := poissonJobs(3000, 0.8, hosts, size, seed)
		lwl := server.Run(jobs, server.Config{Hosts: hosts, Policy: NewLeastWorkLeft(), KeepRecords: true})
		cq := server.Run(jobs, server.Config{Hosts: hosts, Policy: NewCentralQueue(), KeepRecords: true})
		for i := range lwl.Records {
			a, b := lwl.Records[i], cq.Records[i]
			if math.Abs(a.Start-b.Start) > 1e-6*(1+math.Abs(a.Start)) {
				t.Logf("seed %d hosts %d: job %d starts %v (LWL) vs %v (CQ)",
					seed, hosts, a.ID, a.Start, b.Start)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestSITARoutesBySize(t *testing.T) {
	p := NewSITA("SITA", []float64{10, 100})
	jobs := []workload.Job{
		{ID: 0, Arrival: 0, Size: 5},    // host 0
		{ID: 1, Arrival: 1, Size: 10},   // host 0 (boundary belongs below)
		{ID: 2, Arrival: 2, Size: 10.1}, // host 1
		{ID: 3, Arrival: 3, Size: 100},  // host 1
		{ID: 4, Arrival: 4, Size: 5000}, // host 2
	}
	res := server.Run(jobs, server.Config{Hosts: 3, Policy: p, KeepRecords: true})
	want := []int{0, 0, 1, 1, 2}
	byID := map[int]server.JobRecord{}
	for _, r := range res.Records {
		byID[r.ID] = r
	}
	for id, w := range want {
		if byID[id].Host != w {
			t.Errorf("job %d on host %d, want %d", id, byID[id].Host, w)
		}
	}
}

func TestSITACutoffsCopied(t *testing.T) {
	cuts := []float64{1, 2}
	p := NewSITA("s", cuts)
	cuts[0] = 99
	if p.cutoffs[0] != 1 {
		t.Fatal("constructor did not copy cutoffs")
	}
}

func TestSITAUnsortedCutoffsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSITA("bad", []float64{5, 1})
}

func TestSITAEBalancesLoadInSimulation(t *testing.T) {
	size := dist.NewBoundedPareto(0.9, 10, 1e6)
	cut := size.LoadCutoff(0.5)
	jobs := poissonJobs(150000, 0.6, 2, size, 7)
	res := server.Run(jobs, server.Config{Hosts: 2, Policy: NewSITA("SITA-E", []float64{cut})})
	fr := res.LoadFractions()
	if math.Abs(fr[0]-0.5) > 0.08 {
		t.Fatalf("SITA-E load fractions %v, want ~[0.5, 0.5]", fr)
	}
	// Nearly all jobs should be on host 0.
	if float64(res.PerHostJobs[0])/float64(res.PerHostJobs[0]+res.PerHostJobs[1]) < 0.95 {
		t.Fatalf("job split %v, want heavy majority on host 0", res.PerHostJobs)
	}
}

func TestGroupedSITASplitsGroups(t *testing.T) {
	p := NewGroupedSITA("grouped", 10, 2)
	jobs := []workload.Job{
		{ID: 0, Arrival: 0, Size: 1},
		{ID: 1, Arrival: 0.1, Size: 2},
		{ID: 2, Arrival: 0.2, Size: 3},
		{ID: 3, Arrival: 0.3, Size: 50},
		{ID: 4, Arrival: 0.4, Size: 60},
	}
	res := server.Run(jobs, server.Config{Hosts: 4, Policy: p, KeepRecords: true})
	for _, r := range res.Records {
		if r.Size <= 10 && r.Host >= 2 {
			t.Errorf("short job %d on long host %d", r.ID, r.Host)
		}
		if r.Size > 10 && r.Host < 2 {
			t.Errorf("long job %d on short host %d", r.ID, r.Host)
		}
	}
	// LWL within group: jobs 0 and 1 land on different short hosts.
	byID := map[int]server.JobRecord{}
	for _, r := range res.Records {
		byID[r.ID] = r
	}
	if byID[0].Host == byID[1].Host {
		t.Error("grouped SITA should spread simultaneous shorts via LWL")
	}
	if byID[3].Host == byID[4].Host {
		t.Error("grouped SITA should spread longs via LWL")
	}
}

func TestGroupedSITAValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroupedSITA("bad", 10, 0)
}

func TestMisclassifyZeroProbabilityIdentical(t *testing.T) {
	size := dist.NewBoundedPareto(1.1, 1, 1e4)
	cut := size.LoadCutoff(0.5)
	jobs := poissonJobs(5000, 0.6, 2, size, 3)
	pure := server.Run(jobs, server.Config{Hosts: 2, Policy: NewSITA("s", []float64{cut}), KeepRecords: true})
	wrapped := server.Run(jobs, server.Config{
		Hosts:       2,
		Policy:      NewMisclassifyMode(NewSITA("s", []float64{cut}), cut, 0, FlipBoth, sim.NewRNG(9, 0)),
		KeepRecords: true,
	})
	for i := range pure.Records {
		if pure.Records[i].Host != wrapped.Records[i].Host {
			t.Fatalf("p=0 wrapper changed routing at job %d", i)
		}
	}
}

func TestMisclassifyFlipsExpectedFraction(t *testing.T) {
	size := dist.NewBoundedPareto(1.1, 1, 1e4)
	cut := size.LoadCutoff(0.5)
	jobs := poissonJobs(30000, 0.5, 2, size, 4)
	p := 0.2
	res := server.Run(jobs, server.Config{
		Hosts:       2,
		Policy:      NewMisclassifyMode(NewSITA("s", []float64{cut}), cut, p, FlipBoth, sim.NewRNG(10, 0)),
		KeepRecords: true,
	})
	flipped := 0
	for _, r := range res.Records {
		correct := 0
		if r.Size > cut {
			correct = 1
		}
		if r.Host != correct {
			flipped++
		}
	}
	frac := float64(flipped) / float64(len(res.Records))
	if math.Abs(frac-p) > 0.02 {
		t.Fatalf("flipped fraction %v, want ~%v", frac, p)
	}
}

func TestMisclassifyValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewMisclassifyMode(nil, 1, 0.5, FlipBoth, sim.NewRNG(1, 0)) },
		func() { NewMisclassifyMode(NewRoundRobin(), 1, 1.5, FlipBoth, sim.NewRNG(1, 0)) },
		func() { NewRandom(nil) },
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

func TestPolicyNames(t *testing.T) {
	cases := map[string]server.Policy{
		"Random":          NewRandom(sim.NewRNG(0, 0)),
		"Round-Robin":     NewRoundRobin(),
		"Shortest-Queue":  NewShortestQueue(),
		"Least-Work-Left": NewLeastWorkLeft(),
		"Central-Queue":   NewCentralQueue(),
		"SITA-E":          NewSITA("SITA-E", nil),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("name %q, want %q", p.Name(), want)
		}
	}
	m := NewMisclassifyMode(NewSITA("SITA-E", nil), 1, 0.25, FlipBoth, sim.NewRNG(0, 0))
	if m.Name() != "SITA-E+err25%" {
		t.Errorf("misclassify name %q", m.Name())
	}
}

func TestPoliciesKeepAllJobsSortedOutput(t *testing.T) {
	// Smoke test every policy end to end on the same workload; every run
	// must complete all jobs and produce sane slowdowns.
	size := dist.NewBoundedPareto(1.1, 1, 1e5)
	cut := size.LoadCutoff(0.5)
	jobs := poissonJobs(20000, 0.7, 2, size, 11)
	policies := []server.Policy{
		NewRandom(sim.NewRNG(11, 5)),
		NewRoundRobin(),
		NewShortestQueue(),
		NewLeastWorkLeft(),
		NewCentralQueue(),
		NewSITA("SITA-E", []float64{cut}),
		NewGroupedSITA("grouped", cut, 1),
		NewMisclassifyMode(NewSITA("SITA-E", []float64{cut}), cut, 0.1, FlipBoth, sim.NewRNG(11, 6)),
	}
	for _, p := range policies {
		res := server.Run(jobs, server.Config{Hosts: 2, Policy: p})
		if res.Slowdown.Count() != int64(len(jobs)) {
			t.Errorf("%s: completed %d of %d", p.Name(), res.Slowdown.Count(), len(jobs))
		}
		if res.Slowdown.Min() < 1 {
			t.Errorf("%s: slowdown %v < 1", p.Name(), res.Slowdown.Min())
		}
	}
}

func TestShortestQueueTieBreaksDeterministic(t *testing.T) {
	// With all hosts empty the lowest index wins; the run is fully
	// deterministic.
	jobs := poissonJobs(1000, 0.5, 3, dist.NewExponential(1), 21)
	a := server.Run(jobs, server.Config{Hosts: 3, Policy: NewShortestQueue(), KeepRecords: true})
	b := server.Run(jobs, server.Config{Hosts: 3, Policy: NewShortestQueue(), KeepRecords: true})
	for i := range a.Records {
		if a.Records[i].Host != b.Records[i].Host {
			t.Fatal("shortest-queue not deterministic")
		}
	}
	if !sort.SliceIsSorted(a.Records, func(i, j int) bool {
		return a.Records[i].Departure <= a.Records[j].Departure
	}) {
		t.Fatal("records not in completion order")
	}
}
