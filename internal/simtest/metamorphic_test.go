package simtest

import (
	"fmt"
	"math"
	"testing"

	"sita/internal/policy"
	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/workload"
)

// collectRecords runs jobs under cfg and returns the full record stream
// (warmup included) alongside the Result.
func collectRecords(jobs []workload.Job, cfg server.Config) (*server.Result, []server.JobRecord) {
	records := make([]server.JobRecord, 0, len(jobs))
	cfg.OnRecord = func(rec server.JobRecord) { records = append(records, rec) }
	res := server.Run(jobs, cfg)
	return res, records
}

// sameStream reports whether two delay streams carry the bit-identical
// accumulated state (count, sum, mean, variance accumulator).
func sameStream(a, b *stats.Stream) error {
	if a.Count() != b.Count() {
		return fmt.Errorf("count %d vs %d", a.Count(), b.Count())
	}
	//lint:allow floateq bit-exact equivalence is the property under test
	if a.Sum() != b.Sum() || a.Mean() != b.Mean() || a.Variance() != b.Variance() {
		return fmt.Errorf("sum/mean/var %v/%v/%v vs %v/%v/%v",
			a.Sum(), a.Mean(), a.Variance(), b.Sum(), b.Mean(), b.Variance())
	}
	return nil
}

// TestTimeScalingBitExact checks the time-scaling metamorphic relation
// for every policy, state-reading ones included: multiplying all
// arrivals, sizes, and SITA cutoffs by a power of two multiplies every
// start, departure, wait, and response by exactly that constant — bit
// for bit, because scaling by a power of two only shifts IEEE 754
// exponents and therefore preserves every comparison, tie, and heap
// order the simulation makes.
func TestTimeScalingBitExact(t *testing.T) {
	const hosts = 3
	cases := []struct {
		name  string
		build func(c float64) server.Policy // c scales size-denominated parameters
		order server.CentralOrder
	}{
		{name: "random", build: func(float64) server.Policy { return policy.NewRandom(sim.NewRNG(41, 3)) }},
		{name: "round-robin", build: func(float64) server.Policy { return policy.NewRoundRobin() }},
		{name: "sita", build: func(c float64) server.Policy {
			return policy.NewSITA("sita", []float64{sitaCutoffs[0] * c, sitaCutoffs[1] * c})
		}},
		{name: "shortest-queue", build: func(float64) server.Policy { return policy.NewShortestQueue() }},
		{name: "least-work-left", build: func(float64) server.Policy { return policy.NewLeastWorkLeft() }},
		{name: "central-fcfs", build: func(float64) server.Policy { return policy.NewCentralQueue() }},
		{name: "central-sjf", build: func(float64) server.Policy { return policy.NewCentralQueue() }, order: server.CentralSJF},
	}
	seeds := scaled(10, 60)
	for _, tc := range cases {
		for s := 0; s < seeds; s++ {
			seed := uint64(600 + s)
			var jobs []workload.Job
			if s%2 == 0 {
				jobs = GenAdversarialJobs(seed, 500)
			} else {
				jobs = GenExpJobs(seed, 500, 0.9, 2.0, hosts)
			}
			for _, c := range []float64{4, 0.125} {
				name := fmt.Sprintf("%s/seed%d/x%v", tc.name, seed, c)
				base, baseRec := collectRecords(jobs, server.Config{
					Hosts: hosts, Policy: tc.build(1), CentralOrder: tc.order, OrderCheck: true,
				})
				scl, sclRec := collectRecords(ScaleJobs(jobs, c), server.Config{
					Hosts: hosts, Policy: tc.build(c), CentralOrder: tc.order, OrderCheck: true,
				})
				if len(baseRec) != len(sclRec) {
					t.Fatalf("%s: %d records vs %d", name, len(baseRec), len(sclRec))
				}
				for i := range baseRec {
					a, b := baseRec[i], sclRec[i]
					//lint:allow floateq power-of-two scaling must be bit-exact
					if a.ID != b.ID || a.Host != b.Host ||
						b.Arrival != a.Arrival*c || b.Size != a.Size*c ||
						b.Start != a.Start*c || b.Departure != a.Departure*c {
						t.Fatalf("%s: record %d: base %+v, scaled %+v", name, i, a, b)
					}
				}
				// Slowdown is scale-free: (c*T)/(c*X) divides to the
				// identical float, so the whole stream state matches.
				if err := sameStream(&base.Slowdown, &scl.Slowdown); err != nil {
					t.Fatalf("%s: slowdown stream: %v", name, err)
				}
				//lint:allow floateq power-of-two scaling must be bit-exact
				if scl.Horizon != base.Horizon*c {
					t.Fatalf("%s: horizon %v, want %v", name, scl.Horizon, base.Horizon*c)
				}
			}
		}
	}
}

// permuted relabels the hosts an oblivious inner policy picks. It does
// not claim the WorkOnly capability, so runs land on the engine path.
type permuted struct {
	inner server.Policy
	perm  []int
}

func (p permuted) Name() string { return "perm-" + p.inner.Name() }

func (p permuted) Assign(j workload.Job, v server.View) int {
	return p.perm[p.inner.Assign(j, v)]
}

// TestHostPermutationInvariance checks that relabeling hosts under an
// oblivious policy is pure bookkeeping: every job's start, departure,
// and delay is bit-identical; only the host labels (and the per-host
// accounting) move through the permutation. State-reading policies are
// excluded — their assignments depend on host state, so relabeling
// genuinely changes the schedule.
func TestHostPermutationInvariance(t *testing.T) {
	const hosts = 4
	perm := []int{2, 0, 3, 1}
	builds := map[string]func() server.Policy{
		"random":      func() server.Policy { return policy.NewRandom(sim.NewRNG(77, 9)) },
		"round-robin": func() server.Policy { return policy.NewRoundRobin() },
		"sita": func() server.Policy {
			return policy.NewSITA("sita", []float64{1.0, 2.5, 6.0})
		},
	}
	seeds := scaled(6, 40)
	for name, build := range builds {
		for s := 0; s < seeds; s++ {
			seed := uint64(700 + s)
			jobs := GenAdversarialJobs(seed, 600)
			base, baseRec := collectRecords(jobs, server.Config{
				Hosts: hosts, Policy: build(), OrderCheck: true,
			})
			perma, permRec := collectRecords(jobs, server.Config{
				Hosts: hosts, Policy: permuted{inner: build(), perm: perm}, OrderCheck: true,
			})
			if len(baseRec) != len(permRec) {
				t.Fatalf("%s/seed%d: %d records vs %d", name, seed, len(baseRec), len(permRec))
			}
			for i := range baseRec {
				a, b := baseRec[i], permRec[i]
				//lint:allow floateq relabeling hosts must not change any time by any amount
				if a.ID != b.ID || b.Host != perm[a.Host] ||
					a.Arrival != b.Arrival || a.Size != b.Size ||
					a.Start != b.Start || a.Departure != b.Departure {
					t.Fatalf("%s/seed%d: record %d: base %+v, permuted %+v (perm %v)", name, seed, i, a, b, perm)
				}
			}
			for h := 0; h < hosts; h++ {
				//lint:allow floateq per-host sums fold the identical values in the identical order
				if perma.PerHostWork[perm[h]] != base.PerHostWork[h] || perma.PerHostJobs[perm[h]] != base.PerHostJobs[h] {
					t.Fatalf("%s/seed%d: host %d accounting did not move to %d", name, seed, h, perm[h])
				}
			}
			if err := sameStream(&base.Response, &perma.Response); err != nil {
				t.Fatalf("%s/seed%d: response stream: %v", name, seed, err)
			}
		}
	}
}

// TestSITAInfinityCutoffsReduceToSingleHost checks the degenerate-SITA
// relation: with every cutoff at +Inf all jobs land on host 0, and the
// h-host system must reproduce a 1-host system's record stream bit for
// bit — same starts, same departures, same streams — with the spare
// hosts untouched.
func TestSITAInfinityCutoffsReduceToSingleHost(t *testing.T) {
	const hosts = 4
	inf := math.Inf(1)
	seeds := scaled(8, 40)
	for s := 0; s < seeds; s++ {
		seed := uint64(800 + s)
		var jobs []workload.Job
		if s%2 == 0 {
			jobs = GenAdversarialJobs(seed, 400)
		} else {
			jobs = GenExpJobs(seed, 400, 0.6, 2.0, 1)
		}
		for _, engine := range []bool{true, false} {
			multi, multiRec := collectRecords(jobs, server.Config{
				Hosts: hosts, Policy: policy.NewSITA("sita-inf", []float64{inf, inf, inf}), OrderCheck: engine,
			})
			single, singleRec := collectRecords(jobs, server.Config{
				Hosts: 1, Policy: policy.NewSITA("solo", nil), OrderCheck: engine,
			})
			if len(multiRec) != len(singleRec) {
				t.Fatalf("seed%d engine=%v: %d records vs %d", seed, engine, len(multiRec), len(singleRec))
			}
			for i := range multiRec {
				a, b := multiRec[i], singleRec[i]
				//lint:allow floateq the reduction must be bit-exact
				if a.ID != b.ID || a.Host != 0 || b.Host != 0 ||
					a.Arrival != b.Arrival || a.Size != b.Size ||
					a.Start != b.Start || a.Departure != b.Departure {
					t.Fatalf("seed%d engine=%v: record %d: multi %+v, single %+v", seed, engine, i, a, b)
				}
			}
			for h := 1; h < hosts; h++ {
				if multi.PerHostJobs[h] != 0 || multi.PerHostWork[h] != 0 {
					t.Fatalf("seed%d engine=%v: spare host %d saw traffic", seed, engine, h)
				}
			}
			if err := sameStream(&multi.Slowdown, &single.Slowdown); err != nil {
				t.Fatalf("seed%d engine=%v: slowdown stream: %v", seed, engine, err)
			}
		}
	}
}

// heapVsDirectProp builds the heap-vs-direct equivalence property for
// one work-only policy: the engine path (forced via OrderCheck) and plain
// Run, which takes the direct recurrence, must produce bit-identical
// record streams and results on the given trace. Deterministic, so it can
// be handed to Shrink.
func heapVsDirectProp(build func() server.Policy, hosts int) Property {
	return func(jobs []workload.Job) error {
		engRes, engRec := collectRecords(jobs, server.Config{Hosts: hosts, Policy: build(), OrderCheck: true})
		dirRec := make([]server.JobRecord, 0, len(jobs))
		dirCfg := server.Config{Hosts: hosts, Policy: build(),
			OnRecord: func(rec server.JobRecord) { dirRec = append(dirRec, rec) }}
		if !server.DirectEligible(dirCfg) {
			return fmt.Errorf("policy %q would not take the direct path", dirCfg.Policy.Name())
		}
		dirRes := server.Run(jobs, dirCfg)
		if len(engRec) != len(dirRec) {
			return fmt.Errorf("engine emitted %d records, direct %d", len(engRec), len(dirRec))
		}
		for i := range engRec {
			if engRec[i] != dirRec[i] {
				return fmt.Errorf("record %d: engine %+v, direct %+v", i, engRec[i], dirRec[i])
			}
		}
		for _, s := range []struct {
			name string
			a, b *stats.Stream
		}{
			{"slowdown", &engRes.Slowdown, &dirRes.Slowdown},
			{"response", &engRes.Response, &dirRes.Response},
			{"wait", &engRes.Wait, &dirRes.Wait},
		} {
			if err := sameStream(s.a, s.b); err != nil {
				return fmt.Errorf("%s stream: %v", s.name, err)
			}
		}
		//lint:allow floateq the two paths are bit-identical by contract
		if engRes.Horizon != dirRes.Horizon {
			return fmt.Errorf("horizon %v vs %v", engRes.Horizon, dirRes.Horizon)
		}
		return nil
	}
}

// TestHeapVsDirectOnGeneratedTraces drives the heap-vs-direct
// equivalence over a pool of generated traces — adversarial and
// stochastic — for every work-only policy: the state-blind ones and
// those that read host work (Least-Work-Left, grouped SITA with one and
// with two short hosts of three). On a violation the failing trace is shrunk to a minimal
// counterexample before reporting, so a regression shows up as a handful
// of jobs, not a dump.
func TestHeapVsDirectOnGeneratedTraces(t *testing.T) {
	const hosts = 3
	builds := map[string]func() server.Policy{
		"random":      func() server.Policy { return policy.NewRandom(sim.NewRNG(55, 1)) },
		"round-robin": func() server.Policy { return policy.NewRoundRobin() },
		"sita":        func() server.Policy { return policy.NewSITA("sita", sitaCutoffs) },
		"lwl":         func() server.Policy { return policy.NewLeastWorkLeft() },
		"grouped-1of3": func() server.Policy {
			return policy.NewGroupedSITA("grouped", groupedCutoff, 1)
		},
		"grouped-2of3": func() server.Policy {
			return policy.NewGroupedSITA("grouped", groupedCutoff, 2)
		},
	}
	traces := scaled(64, 600)
	for name, build := range builds {
		prop := heapVsDirectProp(build, hosts)
		for s := 0; s < traces; s++ {
			seed := uint64(900 + s)
			var jobs []workload.Job
			switch s % 3 {
			case 0:
				jobs = GenAdversarialJobs(seed, 300+97*(s%5))
			case 1:
				jobs = GenExpJobs(seed, 400, 0.85, 2.0, hosts)
			default:
				jobs = GenExpJobs(seed, 400, 0.5, 2.0, hosts)
			}
			if err := prop(jobs); err != nil {
				min, minErr := Shrink(jobs, prop, 2000)
				t.Fatalf("%s/seed%d: heap-vs-direct divergence: %v\nminimized to %d jobs (%v):\n%s",
					name, seed, err, len(min), minErr, FormatJobs(min))
			}
		}
	}
}
