package policy

import (
	"testing"

	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/trace"
	"sita/internal/workload"
)

// Differential proof of the direct fast path over the real policy
// implementations: every policy that claims the WorkOnly capability must produce a bit-identical Result through plain server.Run
// (the direct recurrence) and the event-heap engine
// — same record bytes, same Welford stream states, same per-host
// accounting — on streams retimed from all three of the paper's workload
// profiles. Fresh policy instances (and fresh generators from the same
// seed) per run keep the RNG draw sequences comparable.

// directCases builds one instance of every capability-claiming policy on
// 3 hosts: the state-blind ones, and those that read host work
// (Least-Work-Left, grouped SITA with one and with two short hosts, and a
// misclassifying wrapper around LWL). Constructors are called per run so sequential
// state (Round-Robin's counter, generators, believed backlogs) starts
// identically on each path.
func directCases() []struct {
	name  string
	build func() server.Policy
} {
	cutoffs := []float64{100, 10000}
	return []struct {
		name  string
		build func() server.Policy
	}{
		{"random", func() server.Policy { return NewRandom(sim.NewRNG(7, 0)) }},
		{"round-robin", func() server.Policy { return NewRoundRobin() }},
		{"sita", func() server.Policy { return NewSITA("SITA-E", cutoffs) }},
		{"misclassify-sita", func() server.Policy {
			return NewMisclassify(NewSITA("SITA-E", cutoffs), 100, 0.3, sim.NewRNG(7, 1))
		}},
		{"estimated-sita", func() server.Policy {
			return NewEstimatedSITA(NewSITA("SITA-E", cutoffs), 0.5, sim.NewRNG(7, 2))
		}},
		{"estimated-lwl", func() server.Policy { return NewEstimatedLWL(0.5, sim.NewRNG(7, 3)) }},
		{"lwl", func() server.Policy { return NewLeastWorkLeft() }},
		{"grouped-sita-1of3", func() server.Policy { return NewGroupedSITA("grouped", 100, 1) }},
		{"grouped-sita-2of3", func() server.Policy { return NewGroupedSITA("grouped", 100, 2) }},
		{"misclassify-lwl", func() server.Policy {
			return NewMisclassify(NewLeastWorkLeft(), 100, 0.3, sim.NewRNG(7, 4))
		}},
	}
}

func profileStream(t *testing.T, p trace.Profile, n int) []workload.Job {
	t.Helper()
	tr, err := trace.Generate(p, 11)
	if err != nil {
		t.Fatalf("generating %s: %v", p.Name, err)
	}
	return tr.Head(n).JobsAtLoad(0.8, 3, true, 13)
}

func TestDirectPathMatchesEngineAllObliviousPolicies(t *testing.T) {
	for _, prof := range []trace.Profile{trace.C90(), trace.J90(), trace.CTC()} {
		jobs := profileStream(t, prof, 4000)
		for _, pc := range directCases() {
			t.Run(prof.Name+"/"+pc.name, func(t *testing.T) {
				if p := pc.build(); !server.IsWorkOnly(p) {
					t.Fatalf("%s does not claim the WorkOnly capability", pc.name)
				}
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
				if (direct.Classes == nil) != (engine.Classes == nil) {
					t.Fatal("class tallies differ in presence")
				}
			})
		}
	}
}

// TestObliviousCapabilityClaims pins which policies claim the WorkOnly
// capability — the state-blind ones and those that read only host work —
// and that wrappers forward rather than assert it: wrapping a policy that
// reads job counts must not claim it, however the wrapper itself behaves.
func TestObliviousCapabilityClaims(t *testing.T) {
	claims := []struct {
		name     string
		p        server.Policy
		workOnly bool
	}{
		{"Random", NewRandom(sim.NewRNG(1, 0)), true},
		{"RoundRobin", NewRoundRobin(), true},
		{"SITA", NewSITA("SITA-E", []float64{10}), true},
		{"EstimatedLWL", NewEstimatedLWL(0.3, sim.NewRNG(1, 1)), true},
		{"ShortestQueue", NewShortestQueue(), false},
		{"LeastWorkLeft", NewLeastWorkLeft(), true},
		{"CentralQueue", NewCentralQueue(), false},
		{"GroupedSITA", NewGroupedSITA("grouped", 10, 1), true},
		{"Misclassify(SITA)", NewMisclassify(NewSITA("s", []float64{10}), 10, 0.1, sim.NewRNG(1, 2)), true},
		{"Misclassify(ShortestQueue)", NewMisclassify(NewShortestQueue(), 10, 0.1, sim.NewRNG(1, 3)), false},
		{"Misclassify(LWL)", NewMisclassify(NewLeastWorkLeft(), 10, 0.1, sim.NewRNG(1, 4)), true},
		{"Misclassify(GroupedSITA)", NewMisclassify(NewGroupedSITA("grouped", 10, 1), 10, 0.1, sim.NewRNG(1, 6)), true},
		{"EstimatedSITA(SITA)", NewEstimatedSITA(NewSITA("s", []float64{10}), 0.3, sim.NewRNG(1, 5)), true},
	}
	for _, c := range claims {
		if got := server.IsWorkOnly(c.p); got != c.workOnly {
			t.Errorf("IsWorkOnly(%s) = %v, want %v", c.name, got, c.workOnly)
		}
		if got := server.DirectEligible(server.Config{Hosts: 2, Policy: c.p}); got != c.workOnly {
			t.Errorf("DirectEligible(%s) = %v, want %v", c.name, got, c.workOnly)
		}
	}
}
