package policy

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"sita/internal/dist"
	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/workload"
)

// Differential suite: every indexed policy must produce the bit-identical
// record stream of its retained linear-scan reference (scan_test.go) on the
// same trace — same hosts, same start and departure floats — including
// the lowest-index tie-breaks that only show up when several hosts hold
// exactly equal work or job counts. Two trace families cover that: random
// heavy-tailed Poisson streams (generic behaviour) and integer-valued
// tie traps (simultaneous arrivals, equal sizes, arrivals landing exactly
// on departures, so clamped work-left values collide exactly).

// recordKey renders a record stream bit-exactly (hex floats, no rounding).
func recordKey(recs []server.JobRecord) string {
	var b strings.Builder
	hx := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	for _, r := range recs {
		b.WriteString(strconv.Itoa(r.ID))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(r.Host))
		b.WriteByte(' ')
		b.WriteString(hx(r.Start))
		b.WriteByte(' ')
		b.WriteString(hx(r.Departure))
		b.WriteByte('\n')
	}
	return b.String()
}

// tieTrapJobs builds an integer-timed stream engineered for exact float
// collisions: arrivals at whole instants, sizes from a tiny integer set,
// so many hosts repeatedly tie at identical work-left and job counts and
// only the lowest-index rule decides.
func tieTrapJobs(rng *rand.Rand, n int) []workload.Job {
	jobs := make([]workload.Job, n)
	now := 0.0
	for i := range jobs {
		now += float64(rng.IntN(2)) // 0 or 1: bursts of simultaneous arrivals
		jobs[i] = workload.Job{ID: i, Arrival: now, Size: float64(1 + rng.IntN(4))}
	}
	return jobs
}

// diffPolicies runs a fresh indexed policy twice — pinned to the engine
// (OrderCheck), where the System's own argmin indices answer, and through
// plain Run, which takes the direct recurrence for work policies — and
// holds both record streams to the scan reference's, a state policy and
// so run on the engine.
func diffPolicies(t *testing.T, name string, hosts int, jobs []workload.Job,
	indexed func() server.Policy, scan server.Policy, order server.CentralOrder) {
	t.Helper()
	b := server.Run(jobs, server.Config{Hosts: hosts, Policy: scan, CentralOrder: order, KeepRecords: true})
	kb := recordKey(b.Records)
	for _, engine := range []bool{true, false} {
		a := server.Run(jobs, server.Config{Hosts: hosts, Policy: indexed(), CentralOrder: order, KeepRecords: true, OrderCheck: engine})
		if ka := recordKey(a.Records); ka != kb {
			i := 0
			for i < len(ka) && i < len(kb) && ka[i] == kb[i] {
				i++
			}
			t.Fatalf("%s h=%d engine=%v: indexed and scan record streams diverge near byte %d:\nindexed: %.120s\nscan:    %.120s",
				name, hosts, engine, i, ka[max(0, i-40):], kb[max(0, i-40):])
		}
	}
}

func TestIndexedPoliciesMatchScanReference(t *testing.T) {
	size := dist.NewBoundedPareto(1.1, 1, 1e4)
	for _, hosts := range []int{1, 2, 3, 7, 16, 33, 64} {
		for seed := uint64(0); seed < 3; seed++ {
			random := poissonJobs(4000, 0.85, hosts, size, 100+seed)
			traps := tieTrapJobs(sim.NewRNG(200+seed, uint64(hosts)), 4000)
			for _, trace := range []struct {
				name string
				jobs []workload.Job
			}{{"random", random}, {"tietrap", traps}} {
				cut := size.LoadCutoff(0.5)
				shortHosts := (hosts + 1) / 2
				type diffCase struct {
					name    string
					indexed func() server.Policy
					scan    server.Policy
					order   server.CentralOrder
				}
				cases := []diffCase{
					{"lwl", func() server.Policy { return NewLeastWorkLeft() }, NewScanLeastWorkLeft(), server.CentralFCFS},
					{"shortest-queue", func() server.Policy { return NewShortestQueue() }, NewScanShortestQueue(), server.CentralFCFS},
					{"central-fcfs", func() server.Policy { return NewCentralQueue() }, NewScanCentralQueue(), server.CentralFCFS},
					{"central-sjf", func() server.Policy { return NewCentralQueue() }, NewScanCentralQueue(), server.CentralSJF},
					{"estimated-lwl", func() server.Policy { return NewEstimatedLWL(0.5, sim.NewRNG(300+seed, 0)) },
						NewScanEstimatedLWL(NewEstimatedLWL(0.5, sim.NewRNG(300+seed, 0))), server.CentralFCFS},
					{"estimated-lwl-exact", func() server.Policy { return NewEstimatedLWL(0, sim.NewRNG(301, 0)) },
						NewScanEstimatedLWL(NewEstimatedLWL(0, sim.NewRNG(301, 0))), server.CentralFCFS},
				}
				if hosts >= 2 { // grouped SITA needs a non-empty long group
					cases = append(cases, diffCase{"grouped-sita", func() server.Policy { return NewGroupedSITA("g", cut, shortHosts) },
						NewScanGroupedSITA(cut, shortHosts), server.CentralFCFS})
				}
				for _, c := range cases {
					diffPolicies(t, c.name+"/"+trace.name, hosts, trace.jobs, c.indexed, c.scan, c.order)
				}
			}
		}
	}
}

// TestIndexedPoliciesMatchScanOnPS runs the same differential on PS hosts,
// whose View answers MinWorkHost by an exact scan and MinJobsHost by the
// incremental index.
func TestIndexedPoliciesMatchScanOnPS(t *testing.T) {
	size := dist.NewBoundedPareto(1.1, 1, 1e3)
	for _, hosts := range []int{2, 5, 16} {
		jobs := poissonJobs(2000, 0.8, hosts, size, 77)
		traps := tieTrapJobs(sim.NewRNG(78, uint64(hosts)), 2000)
		for _, trace := range [][]workload.Job{jobs, traps} {
			for _, c := range []struct {
				name          string
				indexed, scan server.Policy
			}{
				{"lwl", NewLeastWorkLeft(), NewScanLeastWorkLeft()},
				{"shortest-queue", NewShortestQueue(), NewScanShortestQueue()},
			} {
				a := server.RunPS(trace, server.Config{Hosts: hosts, Policy: c.indexed, KeepRecords: true})
				b := server.RunPS(trace, server.Config{Hosts: hosts, Policy: c.scan, KeepRecords: true})
				if recordKey(a.Records) != recordKey(b.Records) {
					t.Fatalf("%s h=%d: PS indexed and scan record streams diverge", c.name, hosts)
				}
			}
		}
	}
}
