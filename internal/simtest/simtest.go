// Package simtest is the property-based correctness harness for the
// simulation stack: it checks every task-assignment policy and both
// simulation paths (the event-heap engine and the direct recurrence)
// against first principles instead of frozen golden files.
//
// Three layers:
//
//   - Analytic oracles. On synthetic exponential traces the simulated
//     Random system is h independent M/M/1 queues (Bernoulli splitting of
//     a Poisson stream) and the Central-Queue system is an M/M/h queue, so
//     simulated means must agree with the closed forms in
//     internal/queueing within replication confidence bounds. Little's
//     law (E[Q] = lambda*E[W]) and work-conservation invariants are
//     asserted from record streams for every policy — no distributional
//     assumptions needed.
//
//   - Metamorphic relations. Properties that relate two runs without
//     knowing the right answer for either: scaling all sizes and
//     interarrival gaps by a power of two scales every response time
//     bit-exactly; relabeling hosts under an oblivious policy permutes
//     host accounting but leaves every job's delay bit-identical; a SITA
//     policy with all cutoffs at +Inf reduces to a single-host system;
//     and the direct recurrence must reproduce the engine's record
//     stream bit-for-bit on randomly generated traces.
//
//   - Shrinking. When a generated trace falsifies a property, Shrink
//     deterministically minimizes it (ddmin over job subsets) so the
//     failure report is a handful of jobs, not a 50k-job stream.
//
// The harness leans on two hooks added for it: server.Config.OnRecord
// streams every completed job's record (warmup included) out of both
// simulation paths, and server.Config.OrderCheck (sim.Options.OrderCheck)
// arms the kernel's dispatch-order invariant for the duration of a
// property run.
//
// Everything here is deterministic: generators are seeded, the shrinker
// is a pure function of its inputs, and failures reproduce byte-for-byte.
package simtest

import (
	"fmt"
	"math"

	"sita/internal/floatcmp"
	"sita/internal/server"
	"sita/internal/workload"
)

// RunChecked simulates jobs under cfg via server.Run with the record
// stream captured, then verifies the stream against the FCFS invariants
// (CheckRecords) and the Result's accounting (CheckResult). It returns
// the Result and the captured records; any violation comes back as a
// non-nil error naming the first offending record.
//
// cfg.OnRecord and cfg.KeepRecords are overwritten. perHostFCFS must be
// false for CentralSJF runs (the SJF queue legally starts held jobs out
// of arrival order within a host).
func RunChecked(jobs []workload.Job, cfg server.Config, perHostFCFS bool) (*server.Result, []server.JobRecord, error) {
	records := make([]server.JobRecord, 0, len(jobs))
	cfg.OnRecord = func(rec server.JobRecord) { records = append(records, rec) }
	cfg.KeepRecords = false
	res := server.Run(jobs, cfg)
	if err := CheckRecords(records, len(jobs), cfg.Hosts, perHostFCFS); err != nil {
		return res, records, err
	}
	if err := CheckResult(res, records); err != nil {
		return res, records, err
	}
	return res, records, nil
}

// CheckRecords verifies the model-independent invariants of a complete
// FCFS record stream, in emission order:
//
//   - IDs are a permutation of 0..n-1 and hosts are in range.
//   - Sizes are positive, Start >= Arrival, and Departure = Start + Size
//     exactly (service is run-to-completion on a unit-speed host; both
//     simulation paths compute the departure as that exact float sum).
//   - Departures are emitted in nondecreasing time order (the engine
//     dispatches events in (time, seq) order; the direct path reproduces
//     it).
//   - Per host, service intervals do not overlap: each job starts at or
//     after the previous departure on its host.
//   - Work conservation (no idle host with local work waiting): a job
//     that waited must start exactly at the previous departure on its
//     host — an idle gap before a delayed job means the simulator let a
//     host sit idle while work was queued. This form covers the central
//     queue too: a held job is started by the host that just freed, at
//     that host's departure instant.
//   - With perHostFCFS, jobs on one host are served in arrival order
//     (true for every standard policy except the SJF central queue).
func CheckRecords(records []server.JobRecord, n, hosts int, perHostFCFS bool) error {
	if len(records) != n {
		return fmt.Errorf("simtest: %d records for %d jobs", len(records), n)
	}
	seen := make([]bool, n)
	lastDeparture := math.Inf(-1)
	prev := make([]server.JobRecord, hosts) // last record per host
	prevSet := make([]bool, hosts)
	for i, rec := range records {
		if rec.ID < 0 || rec.ID >= n {
			return fmt.Errorf("simtest: record %d has ID %d outside [0,%d)", i, rec.ID, n)
		}
		if seen[rec.ID] {
			return fmt.Errorf("simtest: job %d completed twice", rec.ID)
		}
		seen[rec.ID] = true
		if rec.Host < 0 || rec.Host >= hosts {
			return fmt.Errorf("simtest: job %d on host %d of %d", rec.ID, rec.Host, hosts)
		}
		if rec.Size <= 0 {
			return fmt.Errorf("simtest: job %d has size %v", rec.ID, rec.Size)
		}
		if rec.Start < rec.Arrival {
			return fmt.Errorf("simtest: job %d starts at %v before its arrival %v", rec.ID, rec.Start, rec.Arrival)
		}
		//lint:allow floateq both paths compute the departure as exactly Start + Size; any deviation is a simulator bug
		if rec.Departure != rec.Start+rec.Size {
			return fmt.Errorf("simtest: job %d departs at %v, want Start+Size = %v", rec.ID, rec.Departure, rec.Start+rec.Size)
		}
		if rec.Departure < lastDeparture {
			return fmt.Errorf("simtest: job %d emitted at %v after departure %v — emission order broken", rec.ID, rec.Departure, lastDeparture)
		}
		lastDeparture = rec.Departure
		if prevSet[rec.Host] {
			p := prev[rec.Host]
			if rec.Start < p.Departure {
				return fmt.Errorf("simtest: host %d overlap: job %d starts at %v before job %d departs at %v",
					rec.Host, rec.ID, rec.Start, p.ID, p.Departure)
			}
			//lint:allow floateq a delayed start coincides exactly with the predecessor's departure; a gap is a conservation bug
			if rec.Start > rec.Arrival && rec.Start != p.Departure {
				return fmt.Errorf("simtest: host %d idled %v..%v while job %d waited (arrived %v) — work conservation broken",
					rec.Host, p.Departure, rec.Start, rec.ID, rec.Arrival)
			}
			if perHostFCFS && rec.Arrival < p.Arrival {
				return fmt.Errorf("simtest: host %d served job %d (arrived %v) after job %d (arrived %v) — FCFS order broken",
					rec.Host, p.ID, p.Arrival, rec.ID, rec.Arrival)
			}
		} else if rec.Start > rec.Arrival {
			return fmt.Errorf("simtest: host %d idled 0..%v while its first job %d waited (arrived %v)",
				rec.Host, rec.Start, rec.ID, rec.Arrival)
		}
		prev[rec.Host] = rec
		prevSet[rec.Host] = true
	}
	return nil
}

// CheckResult cross-checks a Result's aggregate accounting against the
// record stream it was folded from: per-host completed work and job
// counts, the horizon, utilization bounds, and — when the run came off
// the engine path — Little's law, comparing the event-accrued
// time-average queue length (Result.MeanQueueLen) against the same
// integral computed from the records (the sum of waits over the
// horizon). The two accumulations follow different float paths, so they
// agree to rounding, not bit-exactly.
func CheckResult(res *server.Result, records []server.JobRecord) error {
	work := make([]float64, res.Hosts)
	jobs := make([]int64, res.Hosts)
	horizon := 0.0
	waitSum := 0.0
	for _, rec := range records {
		work[rec.Host] += rec.Size
		jobs[rec.Host]++
		if rec.Departure > horizon {
			horizon = rec.Departure
		}
		waitSum += rec.Wait()
	}
	for i := range work {
		//lint:allow floateq Result.observe sums the identical values in the identical order
		if work[i] != res.PerHostWork[i] {
			return fmt.Errorf("simtest: host %d work %v in records, %v in result", i, work[i], res.PerHostWork[i])
		}
		if jobs[i] != res.PerHostJobs[i] {
			return fmt.Errorf("simtest: host %d completed %d jobs in records, %d in result", i, jobs[i], res.PerHostJobs[i])
		}
	}
	//lint:allow floateq both are the maximum of the identical departure values
	if horizon != res.Horizon {
		return fmt.Errorf("simtest: horizon %v in records, %v in result", horizon, res.Horizon)
	}
	for i := range work {
		if res.Horizon > 0 && res.Utilization(i) > 1+1e-9 {
			return fmt.Errorf("simtest: host %d utilization %v > 1", i, res.Utilization(i))
		}
	}
	// Little's law: only the engine FCFS path accrues the independent
	// time integral (MeanQueueLen is 0 on the direct path — and a run
	// with genuinely zero queueing makes the check vacuous either way).
	if res.MeanQueueLen != 0 && horizon > 0 {
		fromRecords := waitSum / horizon
		if !floatcmp.AlmostEqual(res.MeanQueueLen, fromRecords, 1e-6) {
			return fmt.Errorf("simtest: Little's law: event-accrued E[Q] = %v, record-derived lambda*E[W] = %v",
				res.MeanQueueLen, fromRecords)
		}
	}
	return nil
}
