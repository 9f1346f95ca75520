package simtest

import (
	"math"
	"os"
	"testing"

	"sita/internal/policy"
	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/workload"
)

// longMode reports whether the extended property suite was requested
// (SIMTEST_LONG=1); see EXPERIMENTS.md. The short suite keeps CI fast;
// the long one multiplies trace counts and replication depth.
func longMode() bool { return os.Getenv("SIMTEST_LONG") != "" }

// scaled returns short in the default suite and long under SIMTEST_LONG.
func scaled(short, long int) int {
	if longMode() {
		return long
	}
	return short
}

// policyCase describes one policy under test. build returns a fresh,
// unshared instance (policies are stateful); direct marks the policies
// plain Run sends to the direct recurrence (the work-only ones);
// perHostFCFS is false only for the SJF central queue, which legally
// serves a host's jobs out of arrival order.
type policyCase struct {
	name         string
	build        func() server.Policy
	centralOrder server.CentralOrder
	direct       bool
	perHostFCFS  bool
}

// sitaCutoffs are mid-range cutoffs for a 3-host SITA over the test
// traces (exponential mean 2, adversarial sizes up to ~60): all three
// hosts see traffic.
var sitaCutoffs = []float64{1.25, 4}

// groupedCutoff is the short/long cutoff for grouped SITA over the same
// traces: both groups see traffic.
const groupedCutoff = 2.0

func policyCases() []policyCase {
	return []policyCase{
		{name: "random", build: func() server.Policy { return policy.NewRandom(sim.NewRNG(97, 5)) }, direct: true, perHostFCFS: true},
		{name: "round-robin", build: func() server.Policy { return policy.NewRoundRobin() }, direct: true, perHostFCFS: true},
		{name: "sita", build: func() server.Policy { return policy.NewSITA("sita", sitaCutoffs) }, direct: true, perHostFCFS: true},
		{name: "shortest-queue", build: func() server.Policy { return policy.NewShortestQueue() }, perHostFCFS: true},
		{name: "least-work-left", build: func() server.Policy { return policy.NewLeastWorkLeft() }, direct: true, perHostFCFS: true},
		{name: "grouped-sita-1of3", build: func() server.Policy { return policy.NewGroupedSITA("grouped", groupedCutoff, 1) }, direct: true, perHostFCFS: true},
		{name: "grouped-sita-2of3", build: func() server.Policy { return policy.NewGroupedSITA("grouped", groupedCutoff, 2) }, direct: true, perHostFCFS: true},
		{name: "central-fcfs", build: func() server.Policy { return policy.NewCentralQueue() }, perHostFCFS: true},
		{name: "central-sjf", build: func() server.Policy { return policy.NewCentralQueue() }, centralOrder: server.CentralSJF},
	}
}

// invariantTraces are the fixed trace set the record-stream invariants
// run over: clean stochastic streams at moderate and near-saturation
// load, plus adversarial streams full of ties, bursts, and drains.
func invariantTraces(hosts int) map[string][]workload.Job {
	n := scaled(4000, 40000)
	return map[string][]workload.Job{
		"exp-mid":       GenExpJobs(11, n, 0.5, 2.0, hosts),
		"exp-high":      GenExpJobs(12, n, 0.95, 2.0, hosts),
		"adversarial-a": GenAdversarialJobs(13, n*3/4),
		"adversarial-b": GenAdversarialJobs(14, n*3/4),
	}
}

// TestRecordInvariantsAllPolicies drives every policy over every trace
// on the engine path with the kernel's dispatch-order assertion armed,
// and checks the full record-stream invariant set: completeness,
// Departure = Start + Size, per-host non-overlap, work conservation,
// FCFS order, result accounting, and Little's law against the
// event-accrued queue-length integral.
func TestRecordInvariantsAllPolicies(t *testing.T) {
	const hosts = 3
	traces := invariantTraces(hosts)
	for _, pc := range policyCases() {
		for tname, jobs := range traces {
			t.Run(pc.name+"/"+tname, func(t *testing.T) {
				cfg := server.Config{
					Hosts:        hosts,
					Policy:       pc.build(),
					CentralOrder: pc.centralOrder,
					OrderCheck:   true, // also pins the run to the engine path
				}
				res, _, err := RunChecked(jobs, cfg, pc.perHostFCFS)
				if err != nil {
					t.Fatal(err)
				}
				if res.MeanQueueLen == 0 {
					t.Fatalf("engine path reported MeanQueueLen = 0 on a contended trace — Little's law check was vacuous")
				}
			})
		}
	}
}

// TestRecordInvariantsDirectPath re-runs the work-only policies
// through the direct-recurrence path (the default dispatch for
// them) and holds the record stream to the same invariants.
func TestRecordInvariantsDirectPath(t *testing.T) {
	const hosts = 3
	traces := invariantTraces(hosts)
	for _, pc := range policyCases() {
		if !pc.direct {
			continue
		}
		for tname, jobs := range traces {
			t.Run(pc.name+"/"+tname, func(t *testing.T) {
				cfg := server.Config{Hosts: hosts, Policy: pc.build()}
				if !server.DirectEligible(cfg) {
					t.Fatalf("expected %s to be direct-eligible", pc.name)
				}
				if _, _, err := RunChecked(jobs, cfg, pc.perHostFCFS); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestProcessorSharingRecordStream holds the PS path's OnRecord hook to
// the invariants that survive processor sharing: every job completes
// exactly once, responses are at least the size (unit-speed hosts), and
// Wait is the sharing-induced stretch, never negative.
func TestProcessorSharingRecordStream(t *testing.T) {
	const hosts = 3
	jobs := GenExpJobs(15, scaled(4000, 40000), 0.7, 2.0, hosts)
	seen := make(map[int]bool, len(jobs))
	cfg := server.Config{
		Hosts:  hosts,
		Policy: policy.NewRoundRobin(),
		OnRecord: func(rec server.JobRecord) {
			if seen[rec.ID] {
				t.Fatalf("PS: job %d completed twice", rec.ID)
			}
			seen[rec.ID] = true
			// PS response times come out of virtual-time arithmetic, so a
			// zero-contention stretch can round to a few ulps below zero —
			// unlike the FCFS paths, exact non-negativity is not promised.
			if rec.Wait() < -1e-9*(math.Abs(rec.Departure)+rec.Size) {
				t.Fatalf("PS: job %d has negative stretch %v", rec.ID, rec.Wait())
			}
			if rec.Slowdown() < 1-1e-9 {
				t.Fatalf("PS: job %d has slowdown %v < 1", rec.ID, rec.Slowdown())
			}
		},
	}
	server.RunPS(jobs, cfg)
	if len(seen) != len(jobs) {
		t.Fatalf("PS: %d of %d jobs reached OnRecord", len(seen), len(jobs))
	}
}
