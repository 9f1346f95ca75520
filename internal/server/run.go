package server

import (
	"fmt"

	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	Hosts  int
	Policy Policy
	// WarmupFraction is the fraction of jobs (in arrival order) whose
	// completions are excluded from statistics; they still occupy the
	// system. Mean slowdown is tail-sensitive, so excluding the cold-start
	// transient matters at high load.
	WarmupFraction float64
	// KeepRecords retains every per-job record in the result (memory
	// proportional to the number of jobs).
	KeepRecords bool
	// SizeClass, when non-nil, maps a job size to a class label for
	// per-class slowdown statistics (the fairness analyses). Every path
	// calls it once per record past the warmup prefix, in emission order,
	// before OnRecord sees the record; warmup records never reach it.
	SizeClass func(size float64) int
	// CentralOrder selects the central-queue discipline for pull policies
	// (default CentralFCFS).
	CentralOrder CentralOrder
	// Interrupt, when non-nil, is polled every sim.InterruptEvery (4096)
	// steps on every path: simulated events on the engine and PS hosts,
	// assigned jobs in the direct recurrence's first phase. When it
	// reports true the simulation stops early and the Result carries
	// Interrupted=true (see Result.Interrupted for what the other fields
	// then hold). Serving paths use this to honor request deadlines; batch
	// paths leave it nil, which costs nothing and keeps output
	// byte-identical. The callback must be cheap and must not block (e.g.
	// a non-blocking context poll).
	Interrupt func() bool
	// OnRecord, when non-nil, receives every completed job's record in
	// emission order — warmup jobs included, unlike KeepRecords — on every
	// simulation path (event heap, direct recurrence and PS hosts), after
	// the record is folded into the delay statistics. The correctness
	// harness (internal/simtest) streams invariant checks through it without
	// buffering the whole run; nil costs nothing. The callback must not
	// mutate shared state used by the simulation and must not retain the
	// record past the call if it holds references (it does not — records
	// are plain values).
	OnRecord func(JobRecord)
	// OrderCheck arms the event kernel's dispatch-order assertion
	// (sim.Options.OrderCheck) for the run: the engine panics if it ever
	// fires an event out of (time, seq) order. The direct recurrence has
	// no event heap, so setting it pins the run to the engine; tests and
	// the property harness (internal/simtest) use it to force the engine.
	// Not for production sweeps.
	OrderCheck bool
}

// Result aggregates one run's metrics.
//
// A Result is single-goroutine: it is populated by Run's completion
// callback on the goroutine executing Run, with no internal locking, and
// must not be read until Run returns nor shared with other goroutines
// while being written. Concurrent experiment runners (internal/runner)
// must give every simulation cell its own Result — which Run does by
// construction, allocating a fresh one per call.
type Result struct {
	PolicyName string
	Hosts      int

	Slowdown stats.Stream
	Response stats.Stream
	Wait     stats.Stream

	// PerHostJobs and PerHostWork count completed jobs and completed work
	// per host (warmup included: they describe where load went, not delay).
	PerHostJobs []int64
	PerHostWork []float64

	// Horizon is the completion time of the last job.
	Horizon float64

	// Interrupted reports that Config.Interrupt stopped the simulation
	// before the job list drained. On the engine and PS paths every other
	// field then covers only the jobs that completed in time. The direct
	// recurrence folds completions in only after its first phase has
	// assigned every job, so an interrupted direct run completed none: its
	// statistics, per-host counts, Horizon and Records are empty and
	// OnRecord never ran. Either way the Result is partial and must not
	// be served as the run's answer.
	Interrupted bool

	// MeanQueueLen is the time-averaged number of waiting jobs over the
	// simulated horizon, accrued event by event by the FCFS engine path
	// (System.MeanQueueLength) — an accounting of E[Q] that is
	// independent of the per-job records, which is what makes Little's
	// law (E[Q] = lambda * E[W]) a genuine cross-check of the event
	// bookkeeping rather than an identity. Populated only by the engine
	// FCFS path; 0 on the direct-recurrence and PS paths — so 0 for
	// every WorkPolicy (Random, Round-Robin, SITA, Least-Work-Left,
	// grouped SITA) under plain Run, and set when cfg.OrderCheck pins the
	// engine.
	MeanQueueLen float64

	// Classes holds per-class slowdown streams when Config.SizeClass is
	// set.
	Classes *stats.ClassTally

	Records []JobRecord
}

// LoadFractions reports each host's share of the total completed work.
func (r *Result) LoadFractions() []float64 {
	total := 0.0
	for _, w := range r.PerHostWork {
		total += w
	}
	out := make([]float64, len(r.PerHostWork))
	if total == 0 {
		return out
	}
	for i, w := range r.PerHostWork {
		out[i] = w / total
	}
	return out
}

// Utilization reports the fraction of the run each host spent busy.
func (r *Result) Utilization(i int) float64 {
	if r.Horizon == 0 {
		return 0
	}
	return r.PerHostWork[i] / r.Horizon
}

// validateConfig checks Run's configuration contracts.
// Panics if cfg.Hosts <= 0, cfg.Policy is nil or cfg.WarmupFraction is
// outside [0, 1).
func validateConfig(cfg Config) {
	if cfg.Hosts <= 0 {
		panic(fmt.Sprintf("server: config needs hosts > 0, got %d", cfg.Hosts))
	}
	if cfg.Policy == nil {
		panic("server: nil policy")
	}
	// Affirmative form so NaN is rejected too (int(NaN * n) is not a
	// warmup count).
	if !(cfg.WarmupFraction >= 0 && cfg.WarmupFraction < 1) {
		panic(fmt.Sprintf("server: warmup fraction %v outside [0, 1)", cfg.WarmupFraction))
	}
}

// newResult builds the empty Result for a run of n jobs whose first
// warmup jobs are excluded from statistics. Kept records are sized for
// the n - warmup jobs past the warmup prefix, so the run never grows them.
func newResult(cfg Config, n, warmup int) *Result {
	res := &Result{
		PolicyName:  cfg.Policy.Name(),
		Hosts:       cfg.Hosts,
		PerHostJobs: make([]int64, cfg.Hosts),
		PerHostWork: make([]float64, cfg.Hosts),
	}
	if cfg.SizeClass != nil {
		res.Classes = stats.NewClassTally()
	}
	if cfg.KeepRecords {
		res.Records = make([]JobRecord, 0, n-warmup)
	}
	return res
}

// observe folds one completed job into the result: per-host accounting
// always; past the warmup prefix, the delay statistics, the per-class
// tally and the kept records; then the OnRecord hook. The event-heap
// engine and PS hosts call it; the direct recurrence runs the same
// updates inline (emitAll), in the same order, so the accumulated streams
// are bit-identical by construction.
func (res *Result) observe(rec JobRecord, warmup int, cfg *Config) {
	res.PerHostJobs[rec.Host]++
	res.PerHostWork[rec.Host] += rec.Size
	if rec.Departure > res.Horizon {
		res.Horizon = rec.Departure
	}
	if rec.ID >= warmup {
		slow := observedSlowdown(rec)
		res.Slowdown.Add(slow)
		res.Response.Add(rec.Response())
		res.Wait.Add(rec.Wait())
		if res.Classes != nil {
			res.Classes.Stream(cfg.SizeClass(rec.Size)).Add(slow)
		}
		if cfg.KeepRecords {
			res.Records = append(res.Records, rec)
		}
	}
	if cfg.OnRecord != nil {
		cfg.OnRecord(rec)
	}
}

// observedSlowdown is the slowdown a result records: rec's, clamped to 1.
// A PS host can finish a lone job a rounding error before Arrival + Size;
// an FCFS wait is never negative, so there the clamp never applies.
func observedSlowdown(rec JobRecord) float64 {
	return max(rec.Slowdown(), 1)
}

// Run simulates the job list under the configuration and returns aggregated
// metrics. Every path stamps each job with its arrival ordinal as it first
// reads it, so policies see, and records carry, that ordinal as the ID
// whatever IDs the input holds.
//
// Dispatch: when DirectEligible(cfg) holds — the policy is a WorkPolicy
// and the order check is not armed — Run takes the direct recurrence
// (runDirect) instead of the discrete-event engine. The two paths produce bit-identical Results — same float
// sequence, same record emission order, same RNG draw order, same answers
// to WorkView queries — except Result.MeanQueueLen, an engine-only
// accrual, so the dispatch is otherwise invisible to callers; setting
// cfg.OrderCheck forces the engine for parity checks.
//
// Concurrency: Run itself is synchronous and single-goroutine — the
// completion accounting (Result.observe) updates the Result's Horizon,
// PerHost and stream fields without locks, which is safe because both
// simulation paths deliver completions sequentially on the calling
// goroutine. Concurrent Run calls are safe provided each call gets its own
// cfg.Policy instance (policies are stateful; see Policy) and its own
// SizeClass func if that func is stateful. The jobs slice is never
// written (the ordinal goes on the path's own copy of each job), so
// callers may share one job list across concurrent runs — the package's
// read-only input contract, which internal/streamcache relies on.
// Panics if cfg.Hosts <= 0, cfg.Policy is nil, cfg.WarmupFraction is
// outside [0, 1), cfg.Policy is neither a WorkPolicy nor a StatePolicy,
// or the jobs are not sorted by arrival.
//
//sim:readonly jobs
func Run(jobs []workload.Job, cfg Config) *Result {
	validateConfig(cfg)
	if DirectEligible(cfg) {
		return runDirect(jobs, cfg)
	}
	return runEngine(jobs, cfg)
}

// runEngine is the discrete-event path: every arrival and departure is an
// event on a pooled sim.Engine's heap, which is what supports state
// policies and central-queue pulls.
//
//sim:readonly jobs
func runEngine(jobs []workload.Job, cfg Config) *Result {
	warmup := int(cfg.WarmupFraction * float64(len(jobs)))
	res := newResult(cfg, len(jobs), warmup)
	var sys *System
	res.Interrupted = sim.Run(jobs, evArrival, sim.Options{Interrupt: cfg.Interrupt, OrderCheck: cfg.OrderCheck},
		func(eng *sim.Engine) sim.Handler {
			sys = newSystem(eng, cfg.Hosts, cfg.Policy, cfg.CentralOrder, func(rec JobRecord) {
				res.observe(rec, warmup, &cfg)
			})
			return sys
		})
	res.MeanQueueLen = sys.MeanQueueLength()
	return res
}

// runDirect is the direct-recurrence path (see direct.go), equivalent to
// runEngine as Run's comment states, and honoring cfg.Interrupt as
// Result.Interrupted describes. Panics if the jobs are not sorted by
// arrival or the policy returns a host outside the range (Central
// included).
//
//sim:readonly jobs
func runDirect(jobs []workload.Job, cfg Config) *Result {
	warmup := int(cfg.WarmupFraction * float64(len(jobs)))
	res := newResult(cfg, len(jobs), warmup)
	d := directPool.Get().(*directRunner)
	d.setup(len(jobs), cfg.Hosts, cfg.Policy.(WorkPolicy))
	d.res = res
	d.warmup = warmup
	d.sizeClass = cfg.SizeClass
	d.interrupt = cfg.Interrupt
	if cfg.KeepRecords || cfg.OnRecord != nil {
		// Kept records and the hook run off the hot path, after the
		// record's stream adds, as in Result.observe.
		d.cold = func(rec JobRecord) {
			if cfg.KeepRecords && rec.ID >= warmup {
				res.Records = append(res.Records, rec)
			}
			if cfg.OnRecord != nil {
				cfg.OnRecord(rec)
			}
		}
	}
	res.Interrupted = d.replay(jobs)
	d.release()
	return res
}
