package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/workload"
)

// Trace is an ordered job log: service requirements and arrival instants,
// stored as two columns.
//
// Sizes are always held. Arrivals are held from construction for traces
// read from a log (ReadSWF, New) and for generated traces whose sizes
// follow the arrival bursts (BurstSizeBand > 0 and GapSCV > 1). Any other
// generated trace keeps only its sizes and its (profile, seed) recipe and
// draws its arrivals from the recipe's arrival stream once, on the first
// read: the paper's sections 2-5 replace the log's arrival times with
// fresh Poisson arrivals, so most traces are never asked for theirs.
// Every reader of arrivals (ComputeStats, the replay retime of
// JobsAtLoad, Jobs, WriteSWF, Validate) goes through arrivalTimes.
//
// Immutability contract: a Trace must be treated as read-only once built.
// Traces are shared freely (the experiment trace cache, the job-stream
// cache in internal/streamcache, and the simd workload memo all hand one
// *Trace to many concurrent consumers, and the first arrival read is
// safe among them), and the derivation helpers (Truncate, SplitHalf)
// return new traces that share the parent's columns instead of
// editing in place.
type Trace struct {
	Name string

	// sizes holds every job's service requirement, in arrival order.
	sizes []float64
	// arrivals holds the arrival instants of an eager trace; nil when
	// lazy is set.
	arrivals []float64
	// lazy draws a generated trace's arrivals on first read; this trace's
	// arrivals are lazy's [off, off+len(sizes)). Derived traces share
	// their parent's lazy, so the arrivals are drawn once per recipe.
	lazy *lazyArrivals
	off  int

	// id is the cache identity assigned at construction (see Identity).
	id Identity
	// meanSize is the precomputed mean job size (0 when not precomputed;
	// job sizes are validated positive, so 0 is never a real mean).
	meanSize float64
}

// lazyArrivals is the arrival column of a generated trace, drawn from
// its recipe on first read.
type lazyArrivals struct {
	once sync.Once
	p    Profile
	seed uint64
	a    []float64
}

// get returns the drawn arrival instants, drawing them on the first call.
func (l *lazyArrivals) get() []float64 {
	l.once.Do(func() { l.a = drawArrivals(l.p, l.seed) })
	return l.a
}

// arrivalTimes returns the trace's arrival instants, drawing a lazy
// trace's arrivals on the first read. The slice is shared; read only.
func (t *Trace) arrivalTimes() []float64 {
	if t.lazy == nil {
		return t.arrivals
	}
	return t.lazy.get()[t.off : t.off+len(t.sizes)]
}

// Identity is a comparable, process-stable identity for a trace's exact
// job content, used as a cache key by internal/streamcache and the
// experiment harness. Two traces share an identity only when they are
// guaranteed to hold identical jobs: either they come from the
// same generation recipe (Profile + seed — Generate is a pure function of
// both), or one was derived from the other by a pure derivation (Ops
// records the chain), or they are literally the same construction (Anon,
// a process-unique sequence number, for traces with no reproducible
// recipe such as SWF imports). Every constructor assigns one, so only a
// trace built as an empty struct literal, which holds no jobs, has the
// zero Identity.
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

// anonSeq numbers identities for traces without a generation recipe.
var anonSeq atomic.Uint64

// New builds a trace from a job slice, reading its arrivals and sizes
// into the trace's own columns, precomputing the size mean and assigning
// a fresh anonymous identity. Job IDs are not kept: Jobs numbers the jobs
// in order.
func New(name string, jobs []workload.Job) *Trace {
	t := &Trace{
		Name:     name,
		sizes:    make([]float64, len(jobs)),
		arrivals: make([]float64, len(jobs)),
		id:       Identity{Anon: anonSeq.Add(1)},
	}
	for i, j := range jobs {
		t.arrivals[i], t.sizes[i] = j.Arrival, j.Size
	}
	t.meanSize = t.computeSizeMean()
	return t
}

// derive builds a child trace holding jobs [lo, hi) of t by a pure
// derivation: the child shares t's columns (a lazy parent's arrivals are
// drawn once, for both), and its identity extends the parent's Ops chain,
// so caches can key derived traces without content hashing.
func (t *Trace) derive(name, op string, lo, hi int) *Trace {
	out := &Trace{Name: name, sizes: t.sizes[lo:hi], lazy: t.lazy, off: t.off + lo, id: t.id}
	if t.lazy == nil {
		out.arrivals = t.arrivals[lo:hi]
	}
	out.id.Ops += op
	out.meanSize = out.computeSizeMean()
	return out
}

// Identity returns the trace's cache identity.
func (t *Trace) Identity() Identity { return t.id }

// computeSizeMean streams the mean job size exactly as ComputeStats does,
// so the precomputed value is bit-identical to a fresh pass.
func (t *Trace) computeSizeMean() float64 {
	var mean stats.Stream
	for _, x := range t.sizes {
		mean.Add(x)
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

// arrivalProcess builds the profile's raw arrival process: a two-state
// Markov-modulated Poisson process when GapSCV > 1 (bursts is then that
// process), Poisson otherwise (bursts is nil). The base rate puts a
// nominal 2-host system at load 0.7.
func arrivalProcess(p Profile) (arr workload.ArrivalProcess, bursts *workload.MMPP2) {
	meanGap := p.MeanService / (0.7 * 2)
	lambda := 1 / meanGap
	if p.GapSCV <= 1 {
		return workload.NewPoisson(lambda), nil
	}
	// Burst intensity scales with the profile's gap variability; the high
	// state emits bursts of ~150 jobs at burstFactor times the mean rate.
	burstFactor := math.Max(2, p.GapSCV/2)
	rateHi := burstFactor * lambda
	rateLo := 0.25 * lambda
	pHi := (lambda - rateLo) / (rateHi - rateLo)
	const jobsPerBurst = 150.0
	switchHi := rateHi / jobsPerBurst
	switchLo := switchHi * pHi / (1 - pHi)
	bursts = workload.NewMMPP2(rateLo, rateHi, switchLo, switchHi)
	return bursts, bursts
}

// drawArrivals draws the p.Jobs arrival instants of the recipe
// (p, seed) from its arrival stream (RNG stream 0). Sizes come from
// stream 1, so the instants are the same whether they are drawn with the
// sizes or later.
func drawArrivals(p Profile, seed uint64) []float64 {
	arr, _ := arrivalProcess(p)
	rng := sim.NewRNG(seed, 0)
	out := make([]float64, p.Jobs)
	clock := 0.0
	for i := range out {
		clock += arr.NextGap(rng)
		out[i] = clock
	}
	return out
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
//
// Only a banded profile (BurstSizeBand > 0 and GapSCV > 1) draws the
// arrivals here, because its sizes follow the bursts; any other trace
// draws them on first read (see Trace).
func Generate(p Profile, seed uint64) (*Trace, error) {
	size, err := p.SizeDist()
	if err != nil {
		return nil, fmt.Errorf("trace: generate %q: %w", p.Name, err)
	}
	if p.Jobs <= 0 {
		return nil, fmt.Errorf("trace: profile %q has no jobs", p.Name)
	}
	t := &Trace{Name: p.Name, sizes: make([]float64, p.Jobs), id: Identity{Profile: p, Seed: seed}}
	arr, bursts := arrivalProcess(p)
	banded := p.BurstSizeBand > 0 && bursts != nil
	if banded {
		t.arrivals = make([]float64, p.Jobs)
	} else {
		t.lazy = &lazyArrivals{p: p, seed: seed}
	}

	// Sizes are drawn a block at a time: every size quantile u of the
	// block (and, when banded, every arrival), then size.Quantiles turns
	// the block's quantiles into sizes in place.
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
	const blockLen = 256
	clock, mean := 0.0, 0.0
	wasHigh := false
	bandCenter := 0.0
	prevLo, prev := 0, []float64(nil) // the block whose sizes the mean has yet to take
	addMean := func(i int) { mean += (prev[i] - mean) / float64(prevLo+i+1) }
	for lo := 0; lo < p.Jobs; lo += blockLen {
		block := t.sizes[lo:min(lo+blockLen, p.Jobs)]
		for i := range block {
			var u float64
			if banded {
				clock += arr.NextGap(arrRNG)
				t.arrivals[lo+i] = clock
			}
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
			block[i] = u
			if i < len(prev) {
				addMean(i)
			}
		}
		for i := len(block); i < len(prev); i++ {
			addMean(i)
		}
		size.Quantiles(block)
		prevLo, prev = lo, block
	}
	for i := range prev {
		addMean(i)
	}
	t.meanSize = mean
	return t, nil
}

// Len reports the number of jobs.
func (t *Trace) Len() int { return len(t.sizes) }

// Jobs builds the trace's job slice: job i has ID i, the trace's i-th
// arrival instant and size. Each call builds a fresh slice the caller
// owns; it reads the arrivals, drawing a lazy trace's on the first read.
func (t *Trace) Jobs() []workload.Job {
	a := t.arrivalTimes()
	jobs := make([]workload.Job, len(t.sizes))
	for i, x := range t.sizes {
		jobs[i] = workload.Job{ID: i, Arrival: a[i], Size: x}
	}
	return jobs
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
	a := t.arrivalTimes()
	sorted := make([]float64, len(t.sizes))
	prev := 0.0
	for i, x := range t.sizes {
		sizes.Add(x)
		gaps.Add(a[i] - prev)
		prev = a[i]
		sorted[i] = x
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
		Jobs:            len(t.sizes),
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
	mid := t.Len() / 2
	return t.derive(t.Name+"/derive", "/derive", 0, mid),
		t.derive(t.Name+"/evaluate", "/evaluate", mid, t.Len())
}

// Truncate returns a trace holding the first n jobs without copying them
// (the child shares the parent's columns, which the immutability
// contract makes safe). The child carries a derived identity and a
// freshly computed size mean. Returns t itself if n >= Len.
func (t *Trace) Truncate(n int) *Trace {
	if n >= t.Len() {
		return t
	}
	return t.derive(t.Name, fmt.Sprintf("[:%d]", n), 0, n)
}

// JobsAtLoad re-times the trace's jobs so that a system of hosts unit-speed
// hosts runs at the target load, preserving size order. Poisson-mode draws
// fresh exponential gaps (sections 2-5) and reads only the sizes;
// otherwise the trace's own gaps are rescaled (section 6): each gap is
// multiplied by the scale that makes the mean gap meanSize / (load *
// hosts). The result is a pure function of (trace content, load, hosts,
// poisson, seed) — the property internal/streamcache keys on; consumers
// that retime the same trace repeatedly should go through that cache
// instead of calling this directly. Panics if load is outside (0, 1) or
// NaN, if hosts < 1, or, outside Poisson mode, if the trace is empty or
// its gaps have a non-positive mean.
func (t *Trace) JobsAtLoad(load float64, hosts int, poisson bool, seed uint64) []workload.Job {
	if !(load > 0 && load < 1) {
		panic(fmt.Sprintf("trace: load must be in (0,1), got %v", load))
	}
	if hosts < 1 {
		panic(fmt.Sprintf("trace: hosts must be at least 1, got %d", hosts))
	}
	mean := t.SizeMean()
	jobs := make([]workload.Job, len(t.sizes))
	clock := 0.0
	if poisson {
		arr := workload.NewPoisson(workload.RateForLoad(load, mean, hosts))
		rng := sim.NewRNG(seed, 2)
		for i, x := range t.sizes {
			clock += arr.NextGap(rng)
			jobs[i] = workload.Job{ID: i, Arrival: clock, Size: x}
		}
		return jobs
	}
	a := t.arrivalTimes()
	sum, prev := 0.0, 0.0
	for _, at := range a {
		sum += at - prev
		prev = at
	}
	meanGap := sum / float64(len(a))
	if len(a) == 0 || meanGap <= 0 {
		panic(fmt.Sprintf("trace: replay of %q needs gaps of positive mean, got %d gaps of mean %v", t.Name, len(a), meanGap))
	}
	targetGap := mean / (load * float64(hosts))
	scale := targetGap / meanGap
	if scale <= 0 {
		panic(fmt.Sprintf("trace: replay scale must be positive, got %v", scale))
	}
	prev = 0
	for i, x := range t.sizes {
		clock += (a[i] - prev) * scale
		prev = a[i]
		jobs[i] = workload.Job{ID: i, Arrival: clock, Size: x}
	}
	return jobs
}

// Validate sanity-checks the trace: positive sizes, non-decreasing
// arrivals.
func (t *Trace) Validate() error {
	a := t.arrivalTimes()
	prev := math.Inf(-1)
	for i, x := range t.sizes {
		if x <= 0 {
			return fmt.Errorf("trace %q: job %d has size %v", t.Name, i, x)
		}
		if a[i] < prev {
			return fmt.Errorf("trace %q: job %d arrives at %v before %v", t.Name, i, a[i], prev)
		}
		prev = a[i]
	}
	return nil
}
