package policy

import (
	"fmt"
	"slices"
	"testing"

	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/trace"
	"sita/internal/workload"
)

// Differential proof of the direct fast path over the real policy
// implementations: every work policy must produce a bit-identical Result
// through plain server.Run (the direct recurrence) and the event-heap
// engine
// — same record bytes, same Welford stream states, same per-host
// accounting — on streams retimed from all three of the paper's workload
// profiles. Fresh policy instances (and fresh generators from the same
// seed) per run keep the RNG draw sequences comparable.

// directCases builds one instance of every work policy on 3 hosts: the
// state-blind ones, and those that read host work
// (Least-Work-Left, grouped SITA with one and with two short hosts, and a
// misclassifying wrapper around LWL). Constructors are called per run so sequential
// state (Round-Robin's counter, generators, believed backlogs) starts
// identically on each path.
func directCases() []struct {
	name  string
	build func() server.WorkPolicy
} {
	cutoffs := []float64{100, 10000}
	return []struct {
		name  string
		build func() server.WorkPolicy
	}{
		{"random", func() server.WorkPolicy { return NewRandom(sim.NewRNG(7, 0)) }},
		{"round-robin", func() server.WorkPolicy { return NewRoundRobin() }},
		{"sita", func() server.WorkPolicy { return NewSITA("SITA-E", cutoffs) }},
		{"misclassify-sita", func() server.WorkPolicy {
			return NewMisclassifyMode(NewSITA("SITA-E", cutoffs), 100, 0.3, FlipBoth, sim.NewRNG(7, 1))
		}},
		{"estimated-sita", func() server.WorkPolicy {
			return NewEstimatedSITA(NewSITA("SITA-E", cutoffs), 0.5, sim.NewRNG(7, 2))
		}},
		{"estimated-lwl", func() server.WorkPolicy { return NewEstimatedLWL(0.5, sim.NewRNG(7, 3)) }},
		{"lwl", func() server.WorkPolicy { return NewLeastWorkLeft() }},
		{"grouped-sita-1of3", func() server.WorkPolicy { return NewGroupedSITA("grouped", 100, 1) }},
		{"grouped-sita-2of3", func() server.WorkPolicy { return NewGroupedSITA("grouped", 100, 2) }},
		{"misclassify-lwl", func() server.WorkPolicy {
			return NewMisclassifyMode(NewLeastWorkLeft(), 100, 0.3, FlipBoth, sim.NewRNG(7, 4))
		}},
	}
}

func profileStream(t *testing.T, p trace.Profile, n int) []workload.Job {
	t.Helper()
	tr, err := trace.Generate(p, 11)
	if err != nil {
		t.Fatalf("generating %s: %v", p.Name, err)
	}
	return tr.Truncate(n).JobsAtLoad(0.8, 3, true, 13)
}

// classDiff compares two class tallies bit for bit — the label sets, then
// every class's Stream — and describes the first difference, or returns
// "" when they are identical.
func classDiff(a, b *stats.ClassTally) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("class tally presence differs: %v vs %v", a != nil, b != nil)
		}
		return ""
	}
	la, lb := a.Classes(), b.Classes()
	if !slices.Equal(la, lb) {
		return fmt.Sprintf("class labels differ: %v vs %v", la, lb)
	}
	for _, c := range la {
		if sa, sb := *a.Class(c), *b.Class(c); sa != sb {
			return fmt.Sprintf("class %d streams differ: %+v vs %+v", c, sa, sb)
		}
	}
	return ""
}

func TestDirectPathMatchesEngineAllObliviousPolicies(t *testing.T) {
	for _, prof := range []trace.Profile{trace.C90(), trace.J90(), trace.CTC()} {
		jobs := profileStream(t, prof, 4000)
		for _, pc := range directCases() {
			t.Run(prof.Name+"/"+pc.name, func(t *testing.T) {
				// The order check pins a run to the engine.
				cfg := func(p server.Policy, engine bool) server.Config {
					return server.Config{
						Hosts:          3,
						Policy:         p,
						WarmupFraction: 0.2,
						KeepRecords:    true,
						OrderCheck:     engine,
						SizeClass: func(size float64) int {
							if size > 100 {
								return 1
							}
							return 0
						},
					}
				}
				if !server.DirectEligible(cfg(pc.build(), false)) || server.DirectEligible(cfg(pc.build(), true)) {
					t.Fatal("the order check does not decide the path")
				}
				direct := server.Run(jobs, cfg(pc.build(), false))
				engine := server.Run(jobs, cfg(pc.build(), true))
				if ka, kb := recordKey(direct.Records), recordKey(engine.Records); ka != kb {
					i := 0
					for i < len(ka) && i < len(kb) && ka[i] == kb[i] {
						i++
					}
					t.Fatalf("record streams diverge near byte %d:\ndirect: %.120s\nengine: %.120s",
						i, ka[max(0, i-40):], kb[max(0, i-40):])
				}
				if direct.Slowdown != engine.Slowdown || direct.Response != engine.Response || direct.Wait != engine.Wait {
					t.Fatalf("delay streams differ:\ndirect: %+v\nengine: %+v", direct, engine)
				}
				for h := 0; h < 3; h++ {
					if direct.PerHostJobs[h] != engine.PerHostJobs[h] || direct.PerHostWork[h] != engine.PerHostWork[h] {
						t.Fatalf("per-host accounting differs at host %d", h)
					}
				}
				if direct.Horizon != engine.Horizon {
					t.Fatalf("horizons differ: %v vs %v", direct.Horizon, engine.Horizon)
				}
				if diff := classDiff(direct.Classes, engine.Classes); diff != "" {
					t.Fatal(diff)
				}
			})
		}
	}
}

// TestObliviousCapabilityClaims pins which policies plain server.Run
// takes to the direct path: the work policies — the state-blind ones and
// those that read only host work, wrapped or not — and not the state
// policies. The kinds themselves are compile-time facts (the assertions
// in policy.go); this pins that DirectEligible follows them.
func TestObliviousCapabilityClaims(t *testing.T) {
	claims := []struct {
		name   string
		p      server.Policy
		direct bool
	}{
		{"Random", NewRandom(sim.NewRNG(1, 0)), true},
		{"RoundRobin", NewRoundRobin(), true},
		{"SITA", NewSITA("SITA-E", []float64{10}), true},
		{"EstimatedLWL", NewEstimatedLWL(0.3, sim.NewRNG(1, 1)), true},
		{"ShortestQueue", NewShortestQueue(), false},
		{"LeastWorkLeft", NewLeastWorkLeft(), true},
		{"CentralQueue", NewCentralQueue(), false},
		{"GroupedSITA", NewGroupedSITA("grouped", 10, 1), true},
		{"Misclassify(SITA)", NewMisclassifyMode(NewSITA("s", []float64{10}), 10, 0.1, FlipBoth, sim.NewRNG(1, 2)), true},
		{"Misclassify(LWL)", NewMisclassifyMode(NewLeastWorkLeft(), 10, 0.1, FlipBoth, sim.NewRNG(1, 4)), true},
		{"Misclassify(GroupedSITA)", NewMisclassifyMode(NewGroupedSITA("grouped", 10, 1), 10, 0.1, FlipBoth, sim.NewRNG(1, 6)), true},
		{"EstimatedSITA(SITA)", NewEstimatedSITA(NewSITA("s", []float64{10}), 0.3, sim.NewRNG(1, 5)), true},
	}
	for _, c := range claims {
		if got := server.DirectEligible(server.Config{Hosts: 2, Policy: c.p}); got != c.direct {
			t.Errorf("DirectEligible(%s) = %v, want %v", c.name, got, c.direct)
		}
	}
}
