// Package tags implements TAGS — Task Assignment by Guessing Size
// (Harchol-Balter, ICDCS 2000), the paper's reference [10] and its answer
// for distributed servers where job sizes are *unknown* at dispatch time.
//
// Under TAGS every job starts on Host 1. Host i runs its FCFS queue
// one job at a time; a job that accumulates s_i seconds of service on host
// i without finishing is killed and restarted from scratch at the back of
// host i+1's queue. Big jobs therefore ratchet up the host chain, paying
// wasted work for the anonymity of their size, while small jobs finish on
// the early hosts — TAGS inherits SITA's variance reduction (host i only
// completes jobs in (s_{i-1}, s_i]) and SITA-U's deliberate load
// unbalancing, without needing size estimates.
package tags

import (
	"fmt"
	"math"
	"sort"

	"sita/internal/dist"
	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/workload"
)

// Result aggregates one TAGS simulation.
type Result struct {
	Slowdown stats.Stream
	Response stats.Stream
	// WastedWork is the total service time spent on runs that were killed,
	// and TotalWork the total useful service time; their ratio is the price
	// TAGS pays for not knowing sizes.
	WastedWork float64
	TotalWork  float64
	// PerHostCompleted counts jobs finishing at each host.
	PerHostCompleted []int64
	// PerHostBusy accumulates busy time (useful + wasted) per host.
	PerHostBusy []float64
	Horizon     float64
}

// WasteFraction reports wasted work as a fraction of all work performed.
func (r *Result) WasteFraction() float64 {
	done := r.WastedWork + r.TotalWork
	if done == 0 {
		return 0
	}
	return r.WastedWork / done
}

// Typed-event kinds for the TAGS simulation.
const (
	evArrival uint8 = iota + 1 // Ev.Job arrives at Host 1
	evDone                     // Ev.Job's run on host Ev.Host ends (kill or completion)
)

// tagsHost is one host's FCFS state; the waiting queue is a head-indexed
// FIFO over a reusable backing array, like internal/server's hosts.
type tagsHost struct {
	queue   []workload.Job
	head    int
	running bool
}

func (h *tagsHost) queued() int { return len(h.queue) - h.head }

func (h *tagsHost) dequeue() workload.Job {
	j := h.queue[h.head]
	h.head++
	if h.head == len(h.queue) {
		h.queue = h.queue[:0]
		h.head = 0
	}
	return j
}

// tagsSim is the event handler for one TAGS run: arrival numbering plus
// the kill-and-restart host chain. The run budget of a job on host h is a
// pure function of (job size, h, cutoffs), so the evDone event recomputes
// it at fire time instead of carrying it in a closure.
type tagsSim struct {
	eng     *sim.Engine
	cutoffs []float64
	res     *Result
	hs      []tagsHost
	warmup  int
	arrived int // arrivals so far: the next arrival's ID
}

// runBudget reports how long a job may run on host h and whether it is
// killed at that budget.
func (t *tagsSim) runBudget(h int, job workload.Job) (runFor float64, killed bool) {
	if h < len(t.cutoffs) && job.Size > t.cutoffs[h] {
		return t.cutoffs[h], true
	}
	return job.Size, false
}

// start begins a run of job on host h (busy time accrues at start, as the
// budget is committed).
func (t *tagsSim) start(h int, job workload.Job, now float64) {
	t.hs[h].running = true
	runFor, _ := t.runBudget(h, job)
	t.res.PerHostBusy[h] += runFor
	t.eng.ScheduleAfter(runFor, sim.Ev{Kind: evDone, Host: int32(h), Job: job})
}

// HandleEvent dispatches the engine's typed events.
func (t *tagsSim) HandleEvent(now float64, ev sim.Ev) {
	switch ev.Kind {
	case evArrival:
		// Renumber by arrival order for warmup accounting.
		job := ev.Job
		job.ID = t.arrived
		t.arrived++
		if t.hs[0].running || t.hs[0].queued() > 0 {
			t.hs[0].queue = append(t.hs[0].queue, job)
		} else {
			t.start(0, job, now)
		}
	case evDone:
		t.done(int(ev.Host), ev.Job, now)
	}
}

// done ends a job's run on host h: a kill restarts it from scratch on
// host h+1, a completion records its statistics; either way the host
// pulls its next queued job.
func (t *tagsSim) done(h int, job workload.Job, now float64) {
	res := t.res
	runFor, killed := t.runBudget(h, job)
	t.hs[h].running = false
	if killed {
		res.WastedWork += runFor
		// Restart from scratch on the next host.
		next := h + 1
		if t.hs[next].running || t.hs[next].queued() > 0 {
			t.hs[next].queue = append(t.hs[next].queue, job)
		} else {
			t.start(next, job, now)
		}
	} else {
		res.TotalWork += job.Size
		res.PerHostCompleted[h]++
		if now > res.Horizon {
			res.Horizon = now
		}
		if job.ID >= t.warmup {
			response := now - job.Arrival
			res.Response.Add(response)
			slow := response / job.Size
			if slow < 1 {
				// Floating-point guard: a job served the moment it
				// arrives can round a hair below its size.
				slow = 1
			}
			res.Slowdown.Add(slow)
		}
	}
	// Pull the next job on this host.
	if t.hs[h].queued() > 0 {
		t.start(h, t.hs[h].dequeue(), now)
	}
}

// Simulate runs the job list through a TAGS system with the given internal
// cutoffs (len = hosts-1, ascending; host i kills at cutoffs[i], the last
// host never kills). Jobs must be sorted by arrival time. warmup is the
// fraction of jobs (by arrival order) excluded from delay statistics.
// Panics if the cutoffs do not ascend, warmup is outside [0, 1), or the
// jobs are unsorted.
// The jobs slice is never written (the feed is read by value), so callers
// may share one job list across concurrent runs — the same read-only
// input contract as server.Run.
//
//sim:readonly jobs
func Simulate(jobs []workload.Job, cutoffs []float64, warmup float64) *Result {
	if !sort.Float64sAreSorted(cutoffs) {
		panic(fmt.Sprintf("tags: cutoffs must ascend, got %v", cutoffs))
	}
	// Affirmative form so NaN is rejected too.
	if !(warmup >= 0 && warmup < 1) {
		panic(fmt.Sprintf("tags: warmup fraction %v outside [0, 1)", warmup))
	}
	hosts := len(cutoffs) + 1
	res := &Result{
		PerHostCompleted: make([]int64, hosts),
		PerHostBusy:      make([]float64, hosts),
	}
	sim.Run(jobs, evArrival, sim.Options{}, func(eng *sim.Engine) sim.Handler {
		return &tagsSim{
			eng:     eng,
			cutoffs: cutoffs,
			res:     res,
			hs:      make([]tagsHost, hosts),
			warmup:  int(warmup * float64(len(jobs))),
		}
	})
	return res
}

// Analysis evaluates TAGS analytically, following the TAGS paper's
// decomposition: host i sees (approximately Poisson) arrivals of every job
// bigger than cutoff s_{i-1}, at rate lambda*P(X > s_{i-1}); its service
// time is min(X, s_i) conditioned on X > s_{i-1}. A job of size in
// (s_{i-1}, s_i] pays the full cutoff s_j plus the wait at every earlier
// host j < i, then waits once more and runs to completion on host i.
type Analysis struct {
	Lambda  float64
	Size    dist.Distribution
	Cutoffs []float64
}

// NewAnalysis validates parameters. Panics if lambda <= 0, size is nil, or
// the cutoffs do not ascend.
func NewAnalysis(lambda float64, size dist.Distribution, cutoffs []float64) Analysis {
	if lambda <= 0 || size == nil {
		panic(fmt.Sprintf("tags: analysis needs lambda > 0 and a size distribution, got %v", lambda))
	}
	if !sort.Float64sAreSorted(cutoffs) {
		panic(fmt.Sprintf("tags: cutoffs must ascend, got %v", cutoffs))
	}
	cp := make([]float64, len(cutoffs))
	copy(cp, cutoffs)
	return Analysis{Lambda: lambda, Size: size, Cutoffs: cp}
}

// hostEdges returns (s_{i-1}, s_i) for host i with s_{-1} treated as the
// support minimum and s_last as the support maximum.
func (a Analysis) hostEdges(i int) (lo, hi float64) {
	suppLo, suppHi := a.Size.Support()
	lo = math.Min(suppLo-1, 0)
	hi = suppHi
	if i > 0 {
		lo = a.Cutoffs[i-1]
	}
	if i < len(a.Cutoffs) {
		hi = a.Cutoffs[i]
	}
	return lo, hi
}

// HostMetrics is the analytic state of one TAGS host.
type HostMetrics struct {
	Host     int
	Rate     float64 // arrival rate into this host
	Load     float64 // utilization including wasted work
	MeanWait float64 // FCFS waiting time at this host
}

// serviceMoment computes E[min(X, hi)^j | X > lo] * P(X > lo):
// the unnormalized j-th moment of host i's per-visit service time.
func (a Analysis) serviceMoment(j, lo, hi float64) float64 {
	_, suppHi := a.Size.Support()
	finish := dist.PartialMoment(a.Size, j, lo, hi)
	if hi >= suppHi {
		return finish
	}
	killMass := dist.Prob(a.Size, hi, math.Inf(1))
	return finish + math.Pow(hi, j)*killMass
}

// Hosts evaluates every host's arrival rate, load and mean wait; a host is
// reported with MeanWait = +Inf when unstable.
func (a Analysis) Hosts() []HostMetrics {
	n := len(a.Cutoffs) + 1
	out := make([]HostMetrics, n)
	suppLo, _ := a.Size.Support()
	for i := 0; i < n; i++ {
		lo, hi := a.hostEdges(i)
		surviveMass := 1.0
		if i > 0 {
			surviveMass = dist.Prob(a.Size, lo, math.Inf(1))
		}
		rate := a.Lambda * surviveMass
		m := HostMetrics{Host: i, Rate: rate}
		if surviveMass <= 1e-15 {
			out[i] = m
			continue
		}
		floor := math.Min(suppLo-1, 0)
		if i > 0 {
			floor = lo
		}
		s1 := a.serviceMoment(1, floor, hi) / surviveMass
		s2 := a.serviceMoment(2, floor, hi) / surviveMass
		m.Load = rate * s1
		if m.Load >= 1 {
			m.MeanWait = math.Inf(1)
		} else {
			m.MeanWait = rate * s2 / (2 * (1 - m.Load))
		}
		out[i] = m
	}
	return out
}

// Feasible reports whether every host is stable.
func (a Analysis) Feasible() bool {
	for _, h := range a.Hosts() {
		if h.Load >= 1 {
			return false
		}
	}
	return true
}

// MeanSlowdown evaluates the job-average expected slowdown: a job finishing
// on host i experienced sum_{j<i}(W_j + s_j) + W_i + x, so
// E[S | class i] = 1 + (sum_{j<i}(W_j + s_j) + W_i) * E[1/X | class i].
func (a Analysis) MeanSlowdown() float64 {
	hosts := a.Hosts()
	total := 0.0
	prefix := 0.0 // sum of (W_j + s_j) over earlier hosts
	for i, h := range hosts {
		if math.IsInf(h.MeanWait, 1) {
			return math.Inf(1)
		}
		lo, hi := a.hostEdges(i)
		mass := dist.Prob(a.Size, lo, hi)
		if mass > 1e-15 {
			invX := dist.PartialMoment(a.Size, -1, lo, hi) / mass
			total += mass * (1 + (prefix+h.MeanWait)*invX)
		}
		if i < len(a.Cutoffs) {
			prefix += h.MeanWait + a.Cutoffs[i]
		}
	}
	return total
}

// MeanResponse evaluates the job-average expected response time.
func (a Analysis) MeanResponse() float64 {
	hosts := a.Hosts()
	total := 0.0
	prefix := 0.0
	for i, h := range hosts {
		if math.IsInf(h.MeanWait, 1) {
			return math.Inf(1)
		}
		lo, hi := a.hostEdges(i)
		mass := dist.Prob(a.Size, lo, hi)
		if mass > 1e-15 {
			meanX := dist.PartialMoment(a.Size, 1, lo, hi) / mass
			total += mass * (prefix + h.MeanWait + meanX)
		}
		if i < len(a.Cutoffs) {
			prefix += h.MeanWait + a.Cutoffs[i]
		}
	}
	return total
}

// OptimalCutoffs searches for the TAGS cutoffs minimizing analytic mean
// slowdown for h hosts, by cyclic coordinate descent on a geometric grid —
// the same strategy as the SITA multi-cutoff optimizer, with TAGS' extra
// constraint that wasted work keeps every downstream host stable.
func OptimalCutoffs(lambda float64, size dist.Distribution, h int) ([]float64, error) {
	if h < 2 {
		return nil, fmt.Errorf("tags: need h >= 2, got %d", h)
	}
	suppLo, suppHi := size.Support()
	if suppLo <= 0 {
		suppLo = 1e-12
	}
	if math.IsInf(suppHi, 1) {
		if q, ok := size.(dist.Quantiler); ok {
			suppHi = q.Quantile(1 - 1e-12)
		} else {
			suppHi = suppLo * 1e18
		}
	}
	objective := func(cuts []float64) float64 {
		for i := 1; i < len(cuts); i++ {
			if cuts[i] <= cuts[i-1] {
				return math.Inf(1)
			}
		}
		return NewAnalysis(lambda, size, cuts).MeanSlowdown()
	}
	// Start from the SITA equal-load cutoffs scaled up slightly (TAGS wants
	// higher cutoffs because restarts add load downstream); fall back to a
	// coarse global grid scan for a feasible start.
	cuts := make([]float64, h-1)
	logLo, logHi := math.Log(suppLo), math.Log(suppHi)
	for i := range cuts {
		cuts[i] = math.Exp(logLo + (logHi-logLo)*float64(i+1)/float64(h))
	}
	best := objective(cuts)
	if math.IsInf(best, 1) {
		const scan = 24
		found := false
		if h == 2 {
			for g := 1; g < scan && !found; g++ {
				c := math.Exp(logLo + (logHi-logLo)*float64(g)/scan)
				if v := objective([]float64{c}); !math.IsInf(v, 1) {
					cuts[0], best, found = c, v, true
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("tags: no stable cutoffs found for lambda=%v h=%d", lambda, h)
		}
	}
	for sweep := 0; sweep < 20; sweep++ {
		improved := false
		for i := range cuts {
			a := suppLo
			if i > 0 {
				a = cuts[i-1]
			}
			b := suppHi
			if i < len(cuts)-1 {
				b = cuts[i+1]
			}
			la, lb := math.Log(a*(1+1e-9)), math.Log(b*(1-1e-9))
			if lb <= la {
				continue
			}
			const gridN = 48
			bestC, bestV := cuts[i], best
			for g := 0; g <= gridN; g++ {
				c := math.Exp(la + (lb-la)*float64(g)/gridN)
				old := cuts[i]
				cuts[i] = c
				v := objective(cuts)
				cuts[i] = old
				if v < bestV {
					bestC, bestV = c, v
				}
			}
			if bestV < best-1e-12*math.Abs(best) {
				cuts[i] = bestC
				best = bestV
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if math.IsInf(best, 1) {
		return nil, fmt.Errorf("tags: optimization diverged for lambda=%v h=%d", lambda, h)
	}
	return cuts, nil
}
