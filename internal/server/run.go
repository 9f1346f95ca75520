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
	// per-class slowdown statistics (the fairness analyses).
	SizeClass func(size float64) int
	// CentralOrder selects the central-queue discipline for pull policies
	// (default CentralFCFS).
	CentralOrder CentralOrder
	// Interrupt, when non-nil, is polled every defaultInterruptEvery
	// (4096) simulated events; when it reports true the simulation stops
	// early and the Result carries Interrupted=true with statistics over
	// the jobs completed so far. Serving paths use this to honor request
	// deadlines; batch paths leave it nil, which costs nothing and keeps
	// output byte-identical. The callback must be cheap and must not
	// block (e.g. a non-blocking context poll).
	Interrupt func() bool
	// OnRecord, when non-nil, receives every completed job's record in
	// emission order — warmup jobs included, unlike KeepRecords — on both
	// simulation paths (event heap and direct recurrence), before the
	// record is folded into the statistics. The correctness harness
	// (internal/simtest) streams invariant checks through it without
	// buffering the whole run; nil costs nothing. The callback must not
	// mutate shared state used by the simulation and must not retain the
	// record past the call if it holds references (it does not — records
	// are plain values).
	OnRecord func(JobRecord)
	// OrderCheck arms the event kernel's dispatch-order assertion
	// (sim.Engine.SetOrderCheck) for the run: the engine panics if it
	// ever fires an event out of (time, seq) order. The direct
	// recurrence has no event heap, so setting it pins the run to the
	// engine; tests and the property harness (internal/simtest) use it to
	// force the engine. Not for production sweeps.
	OrderCheck bool
}

// defaultInterruptEvery balances deadline latency against probe overhead:
// at millions of events per second, 4096 events bound the reaction time to
// well under a millisecond while keeping the poll far off the hot path.
const defaultInterruptEvery = 4096

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
	// before the job list drained; every other field then covers only the
	// prefix of jobs that completed in time.
	Interrupted bool

	// MeanQueueLen is the time-averaged number of waiting jobs over the
	// simulated horizon, accrued event by event by the FCFS engine path
	// (System.MeanQueueLength) — an accounting of E[Q] that is
	// independent of the per-job records, which is what makes Little's
	// law (E[Q] = lambda * E[W]) a genuine cross-check of the event
	// bookkeeping rather than an identity. Populated only by the engine
	// FCFS path; 0 on the direct-recurrence and PS paths — so 0 for
	// every work-only policy (Random, Round-Robin, SITA, Least-Work-Left,
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
// Panics if cfg.Hosts <= 0 or cfg.WarmupFraction is outside [0, 1).
func validateConfig(cfg Config) {
	if cfg.Hosts <= 0 {
		panic(fmt.Sprintf("server: config needs hosts > 0, got %d", cfg.Hosts))
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
// always, delay statistics past the warmup prefix. Both simulation paths
// — the event-heap engine and the direct recurrence — emit records
// through this single function, in the same order, so the accumulated
// streams are bit-identical by construction.
func (res *Result) observe(rec JobRecord, warmup int, cfg *Config) {
	if cfg.OnRecord != nil {
		cfg.OnRecord(rec)
	}
	res.PerHostJobs[rec.Host]++
	res.PerHostWork[rec.Host] += rec.Size
	if rec.Departure > res.Horizon {
		res.Horizon = rec.Departure
	}
	if rec.ID < warmup {
		return
	}
	res.Slowdown.Add(rec.Slowdown())
	res.Response.Add(rec.Response())
	res.Wait.Add(rec.Wait())
	if res.Classes != nil {
		res.Classes.Add(cfg.SizeClass(rec.Size), rec.Slowdown())
	}
	if cfg.KeepRecords {
		res.Records = append(res.Records, rec)
	}
}

// Run simulates the job list under the configuration and returns aggregated
// metrics. Jobs are renumbered by arrival order; records carry that
// ordinal as their ID.
//
// Dispatch: when DirectEligible(cfg) holds — the policy claims the
// WorkOnly capability and neither an interrupt probe nor the order check
// is installed — Run takes the direct recurrence (runDirect) instead of
// the discrete-event engine. The two paths produce
// bit-identical Results — same float sequence, same record emission
// order, same RNG draw order, same answers to work-only policies' queries
// — except Result.MeanQueueLen, an engine-only accrual, so the dispatch is
// otherwise invisible to callers; setting cfg.OrderCheck forces the engine
// for parity checks.
//
// Concurrency: Run itself is synchronous and single-goroutine — the
// completion accounting (Result.observe) updates the Result's Horizon,
// PerHost and stream fields without locks, which is safe because both
// simulation paths deliver completions sequentially on the calling
// goroutine. Concurrent Run calls are safe provided each call gets its own
// cfg.Policy instance (policies are stateful; see Policy) and its own
// SizeClass func if that func is stateful. The jobs slice is never
// written (it is copied first when renumbering is needed), so callers may
// share one job list across concurrent runs — the package's read-only
// input contract, which internal/streamcache relies on.
// Panics if cfg.Hosts <= 0 or cfg.WarmupFraction is outside [0, 1).
//
//sim:entry
//sim:readonly jobs
func Run(jobs []workload.Job, cfg Config) *Result {
	validateConfig(cfg)
	if DirectEligible(cfg) {
		return runDirect(jobs, cfg)
	}
	return runEngine(jobs, cfg)
}

// runEngine is the discrete-event path: every arrival and departure is an
// event on the sim.Engine heap, which is what supports state-reading
// policies, central-queue pulls, and cooperative interruption.
//
//sim:readonly jobs
func runEngine(jobs []workload.Job, cfg Config) *Result {
	renumbered := renumber(jobs)
	warmup := int(cfg.WarmupFraction * float64(len(jobs)))

	res := newResult(cfg, len(jobs), warmup)
	eng := sim.Acquire()
	defer sim.Release(eng)
	if cfg.Interrupt != nil {
		eng.SetCancelCheck(defaultInterruptEvery, cfg.Interrupt)
	}
	if cfg.OrderCheck {
		eng.SetOrderCheck(true)
	}
	sys := newSystemOn(eng, cfg.Hosts, cfg.Policy, cfg.CentralOrder, func(rec JobRecord) {
		res.observe(rec, warmup, &cfg)
	})
	sys.Simulate(renumbered)
	res.Interrupted = eng.Interrupted()
	res.MeanQueueLen = sys.MeanQueueLength()
	return res
}

// runDirect is the direct-recurrence path (see direct.go), equivalent to
// runEngine as Run's comment states. Panics if the jobs are not sorted by
// arrival or the policy breaks its WorkOnly claim.
//
//sim:readonly jobs
func runDirect(jobs []workload.Job, cfg Config) *Result {
	renumbered := renumber(jobs)
	warmup := int(cfg.WarmupFraction * float64(len(jobs)))
	res := newResult(cfg, len(jobs), warmup)
	d := directPool.Get().(*directRunner)
	d.setup(len(renumbered), cfg.Hosts, cfg.Policy)
	d.res = res
	d.warmup = warmup
	if cfg.SizeClass != nil || cfg.KeepRecords || cfg.OnRecord != nil {
		// Per-record extras run off the hot path, in the same emission
		// order and after the same stream adds as Result.observe. The
		// hook fires for every record (warmup included, matching
		// Result.observe); the per-class and record-keeping extras apply
		// only past the warmup prefix, exactly as on the engine path.
		d.cold = func(rec JobRecord) {
			if cfg.OnRecord != nil {
				cfg.OnRecord(rec)
			}
			if rec.ID < warmup {
				return
			}
			if res.Classes != nil {
				res.Classes.Add(cfg.SizeClass(rec.Size), rec.Slowdown())
			}
			if cfg.KeepRecords {
				res.Records = append(res.Records, rec)
			}
		}
	}
	d.replay(renumbered)
	d.release()
	return res
}

// renumber gives jobs arrival-order ordinals as their IDs. Job streams
// from workload.Source already carry ordinal IDs, in which case the input
// is returned as-is (Simulate never writes the slice); otherwise a
// renumbered copy is made so callers can share one job list across
// concurrent runs.
func renumber(jobs []workload.Job) []workload.Job {
	ordinal := true
	for i := range jobs {
		if jobs[i].ID != i {
			ordinal = false
			break
		}
	}
	if ordinal {
		return jobs
	}
	renumbered := make([]workload.Job, len(jobs))
	copy(renumbered, jobs)
	for i := range renumbered {
		renumbered[i].ID = i
	}
	return renumbered
}
