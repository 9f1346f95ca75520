package trace

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/workload"
)

// Trace is an ordered job log: arrival instants and service requirements.
//
// Immutability contract: a Trace — the Jobs slice included — must be
// treated as read-only once built. Traces are shared freely (the experiment
// trace cache, the job-stream cache in internal/streamcache, and the simd
// workload memo all hand one *Trace to many concurrent consumers), and the
// derivation helpers (Head, Truncate, SplitHalf) return new traces
// instead of editing in place. Mutating Jobs directly
// would desynchronize the precomputed size mean and the cache identity
// below; derive a new trace instead.
type Trace struct {
	Name string
	Jobs []workload.Job

	// id is the cache identity assigned at construction (see Identity);
	// zero for traces built as plain literals, which caches then bypass.
	id Identity
	// meanSize is the precomputed mean job size (0 when not precomputed;
	// job sizes are validated positive, so 0 is never a real mean).
	meanSize float64
}

// Identity is a comparable, process-stable identity for a trace's exact
// job content, used as a cache key by internal/streamcache and the
// experiment harness. Two traces share an identity only when they are
// guaranteed to hold the identical job slice: either they come from the
// same generation recipe (Profile + seed — Generate is a pure function of
// both), or one was derived from the other by a pure derivation (Ops
// records the chain), or they are literally the same construction (Anon,
// a process-unique sequence number, for traces with no reproducible
// recipe such as SWF imports). The zero Identity means "no identity":
// caches fall back to regenerating rather than guessing.
type Identity struct {
	// Profile and Seed are the generation recipe for synthesized traces.
	Profile Profile
	Seed    uint64
	// Anon is a process-unique sequence number for traces without a
	// reproducible recipe (SWF imports, ad-hoc constructions via New).
	Anon uint64
	// Ops is the chain of pure derivations applied after construction
	// ("/derive", "[:20000]", "/thin3", ...), empty for the original.
	Ops string
}

// IsZero reports whether the identity is unset.
func (id Identity) IsZero() bool { return id == Identity{} }

// anonSeq numbers identities for traces without a generation recipe.
var anonSeq atomic.Uint64

// New builds a trace from a job slice, precomputing the size mean and
// assigning a fresh anonymous identity. The slice is NOT copied; the
// caller hands over ownership and must not mutate it afterwards (see the
// immutability contract on Trace).
func New(name string, jobs []workload.Job) *Trace {
	t := &Trace{Name: name, Jobs: jobs, id: Identity{Anon: anonSeq.Add(1)}}
	t.meanSize = t.computeSizeMean()
	return t
}

// derive builds a child trace from a pure derivation of t: the child's
// identity extends the parent's Ops chain, so caches can key derived
// traces without content hashing. A parent without identity yields a
// child without identity.
func (t *Trace) derive(name, op string, jobs []workload.Job) *Trace {
	out := &Trace{Name: name, Jobs: jobs}
	if !t.id.IsZero() {
		out.id = t.id
		out.id.Ops += op
	}
	out.meanSize = out.computeSizeMean()
	return out
}

// Identity returns the trace's cache identity (zero, with ok=false, for
// traces built as plain literals).
func (t *Trace) Identity() (id Identity, ok bool) {
	return t.id, !t.id.IsZero()
}

// computeSizeMean streams the mean job size exactly as ComputeStats does,
// so the precomputed value is bit-identical to a fresh pass.
func (t *Trace) computeSizeMean() float64 {
	var mean stats.Stream
	for _, j := range t.Jobs {
		mean.Add(j.Size)
	}
	return mean.Mean()
}

// SizeMean returns the mean job size, precomputed at construction for
// traces built through the package constructors (Generate, New, the
// derivation helpers) and streamed on demand otherwise.
func (t *Trace) SizeMean() float64 {
	if t.meanSize != 0 {
		return t.meanSize
	}
	return t.computeSizeMean()
}

// Generate synthesizes a trace from a profile: Bounded Pareto service times
// and a bursty arrival process. Arrivals come from a two-state
// Markov-modulated Poisson process whose high state produces *sustained*
// bursts — tens of consecutive jobs well above the mean rate — matching the
// correlated submission waves of real supercomputing logs (the paper's
// section 6: "many jobs with similar runtimes arrive simultaneously").
// Sustained bursts, not just heavy-tailed gaps, are what eventually favor
// Least-Work-Left at very high load: during a long burst a size-interval
// policy strands the capacity of the hosts whose size class is quiet.
// The base arrival rate puts a nominal 2-host system at load 0.7;
// experiments rescale arrivals anyway (exactly as the paper rescales its
// trace interarrival times).
func Generate(p Profile, seed uint64) (*Trace, error) {
	size, err := p.SizeDist()
	if err != nil {
		return nil, fmt.Errorf("trace: generate %q: %w", p.Name, err)
	}
	if p.Jobs <= 0 {
		return nil, fmt.Errorf("trace: profile %q has no jobs", p.Name)
	}
	meanGap := p.MeanService / (0.7 * 2)
	lambda := 1 / meanGap
	var arr workload.ArrivalProcess = workload.NewPoisson(lambda)
	var bursts *workload.MMPP2 // nil for Poisson arrivals
	if p.GapSCV > 1 {
		// Burst intensity scales with the profile's gap variability; the
		// high state emits bursts of ~150 jobs at burstFactor times the
		// mean rate.
		burstFactor := math.Max(2, p.GapSCV/2)
		rateHi := burstFactor * lambda
		rateLo := 0.25 * lambda
		pHi := (lambda - rateLo) / (rateHi - rateLo)
		const jobsPerBurst = 150.0
		switchHi := rateHi / jobsPerBurst
		switchLo := switchHi * pHi / (1 - pHi)
		bursts = workload.NewMMPP2(rateLo, rateHi, switchLo, switchHi)
		arr = bursts
	}
	banded := p.BurstSizeBand > 0 && bursts != nil

	// Jobs are drawn a block at a time: every arrival and size quantile u
	// of the block, then the block's sizes through size.Quantiles.
	// The mean size streams with exactly stats.Stream's update, so
	// SizeMean matches computeSizeMean bit for bit. That update is one
	// dependent divide chain, so it trails a block behind: the previous
	// block's updates run in the loop that draws this block, where the
	// draws overlap them.
	// With BurstSizeBand > 0, sizes within a burst come from a narrow
	// quantile band whose center is drawn fresh per burst: "many jobs with
	// similar runtimes arrive simultaneously" (section 6). Because band
	// centers are uniform, the marginal size distribution is approximately
	// unchanged — only the correlation is added.
	arrRNG, sizeRNG := sim.NewRNG(seed, 0), sim.NewRNG(seed, 1)
	jobs := make([]workload.Job, p.Jobs)
	var us [256]float64
	clock, mean := 0.0, 0.0
	addMean := func(j workload.Job) { mean += (j.Size - mean) / float64(j.ID+1) }
	wasHigh := false
	bandCenter := 0.0
	var prev []workload.Job // the block whose sizes the mean has yet to take
	for lo := 0; lo < len(jobs); lo += len(us) {
		block := jobs[lo:min(lo+len(us), len(jobs))]
		for i := range block {
			clock += arr.NextGap(arrRNG)
			var u float64
			if banded && bursts.InHigh() {
				if !wasHigh {
					bandCenter = sizeRNG.Float64()
				}
				u = bandCenter + (sizeRNG.Float64()-0.5)*p.BurstSizeBand
				// Reflect at the boundaries so band mass is preserved.
				if u < 0 {
					u = -u
				}
				if u > 1 {
					u = 2 - u
				}
				wasHigh = true
			} else {
				u = sizeRNG.Float64()
				wasHigh = false
			}
			us[i] = u
			block[i].Arrival = clock
			if i < len(prev) {
				addMean(prev[i])
			}
		}
		for _, j := range prev[min(len(block), len(prev)):] {
			addMean(j)
		}
		size.Quantiles(us[:len(block)])
		for i, x := range us[:len(block)] {
			block[i].ID, block[i].Size = lo+i, x
		}
		prev = block
	}
	for _, j := range prev {
		addMean(j)
	}
	return &Trace{Name: p.Name, Jobs: jobs, id: Identity{Profile: p, Seed: seed}, meanSize: mean}, nil
}

// Len reports the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// Gaps returns the interarrival gaps (first gap is the first job's arrival
// offset from time zero).
func (t *Trace) Gaps() []float64 {
	out := make([]float64, len(t.Jobs))
	prev := 0.0
	for i, j := range t.Jobs {
		out[i] = j.Arrival - prev
		prev = j.Arrival
	}
	return out
}

// Stats is one row of the paper's Table 1.
type Stats struct {
	Name      string
	Jobs      int
	Mean      float64
	Min       float64
	Max       float64
	SquaredCV float64
	// TailJobFraction is the fraction of jobs above the half-load cutoff:
	// the paper's "biggest 1.3% of jobs make up half the load" statistic.
	TailJobFraction float64
	// GapSCV is the squared coefficient of variation of interarrival gaps.
	GapSCV float64
}

// ComputeStats derives the Table 1 row from the trace. Size and gap
// moments stream in a single pass; the only allocation is the sorted size
// copy the tail statistic needs.
func (t *Trace) ComputeStats() Stats {
	var sizes, gaps stats.Stream
	sorted := make([]float64, len(t.Jobs))
	prev := 0.0
	for i, j := range t.Jobs {
		sizes.Add(j.Size)
		gaps.Add(j.Arrival - prev)
		prev = j.Arrival
		sorted[i] = j.Size
	}
	sort.Float64s(sorted)
	// Find the smallest job fraction whose biggest jobs hold half the load.
	total := sizes.Sum()
	cum := 0.0
	tailFrac := 1.0
	for i := len(sorted) - 1; i >= 0; i-- {
		cum += sorted[i]
		if cum >= total/2 {
			tailFrac = float64(len(sorted)-i) / float64(len(sorted))
			break
		}
	}
	return Stats{
		Name:            t.Name,
		Jobs:            len(t.Jobs),
		Mean:            sizes.Mean(),
		Min:             sizes.Min(),
		Max:             sizes.Max(),
		SquaredCV:       sizes.SquaredCV(),
		TailJobFraction: tailFrac,
		GapSCV:          gaps.SquaredCV(),
	}
}

// SplitHalf partitions the trace into its first and second halves in
// arrival order — the paper's protocol: derive cutoffs on one half,
// evaluate on the other (section 4.1).
func (t *Trace) SplitHalf() (first, second *Trace) {
	mid := len(t.Jobs) / 2
	return t.derive(t.Name+"/derive", "/derive", t.Jobs[:mid]),
		t.derive(t.Name+"/evaluate", "/evaluate", t.Jobs[mid:])
}

// Truncate returns a trace holding the first n jobs without copying them
// (the child shares the parent's backing array, which the immutability
// contract makes safe). Unlike slicing Jobs in place, the child carries a
// correct derived identity and a freshly computed size mean. Returns t
// itself if n >= Len.
func (t *Trace) Truncate(n int) *Trace {
	if n >= len(t.Jobs) {
		return t
	}
	return t.derive(t.Name, fmt.Sprintf("[:%d]", n), t.Jobs[:n])
}

// JobsAtLoad re-times the trace's jobs so that a system of hosts unit-speed
// hosts runs at the target load, preserving size order. Poisson-mode draws
// fresh exponential gaps (sections 2-5); otherwise the trace's own gaps are
// rescaled (section 6). The result is a pure function of (trace content,
// load, hosts, poisson, seed) — the property internal/streamcache keys on;
// consumers that retime the same trace repeatedly should go through that
// cache instead of calling this directly. Panics if load is outside (0, 1).
func (t *Trace) JobsAtLoad(load float64, hosts int, poisson bool, seed uint64) []workload.Job {
	if load <= 0 || load >= 1 {
		panic(fmt.Sprintf("trace: load must be in (0,1), got %v", load))
	}
	mean := t.SizeMean()
	var replay *workload.Replay // nil in Poisson mode
	var arr workload.Poisson
	if poisson {
		arr = workload.NewPoisson(workload.RateForLoad(load, mean, hosts))
	} else {
		replay = workload.NewReplayForLoad(t.Gaps(), load, mean, hosts)
	}
	rng := sim.NewRNG(seed, 2)
	jobs := make([]workload.Job, len(t.Jobs))
	clock := 0.0
	for i, j := range t.Jobs {
		if replay != nil {
			clock += replay.NextGap(nil)
		} else {
			clock += arr.NextGap(rng)
		}
		jobs[i] = workload.Job{ID: i, Arrival: clock, Size: j.Size}
	}
	return jobs
}

// Validate sanity-checks the trace: positive sizes, non-decreasing
// arrivals.
func (t *Trace) Validate() error {
	prev := math.Inf(-1)
	for i, j := range t.Jobs {
		if j.Size <= 0 {
			return fmt.Errorf("trace %q: job %d has size %v", t.Name, i, j.Size)
		}
		if j.Arrival < prev {
			return fmt.Errorf("trace %q: job %d arrives at %v before %v", t.Name, i, j.Arrival, prev)
		}
		prev = j.Arrival
	}
	return nil
}
