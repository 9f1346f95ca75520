package server

import (
	"fmt"
	"math"

	"sita/internal/hostindex"
	"sita/internal/sim"
	"sita/internal/workload"
)

// Processor-Sharing hosts. The paper's architectural model forbids
// time-sharing (run-to-completion is the norm for memory-bound
// supercomputing jobs), but its fairness definition is motivated by
// footnote 1: "Processor-Sharing ... is ultimately fair in that every job
// experiences the same expected slowdown." This file provides PS hosts so
// that experiments can draw that ideal-fairness reference line: an M/G/1-PS
// host gives every job expected slowdown 1/(1-rho) regardless of its size.

// psJob tracks one job's remaining work inside a PS host.
type psJob struct {
	job       workload.Job
	remaining float64
}

// psHost serves all resident jobs simultaneously, each at rate 1/n.
type psHost struct {
	index      int
	jobs       []psJob
	lastUpdate float64
	pending    sim.Handle // scheduled completion of the current minimum
	engine     *sim.Engine
	onDone     func(rec JobRecord)
}

// advance charges elapsed processing time to every resident job.
//
//sim:noalloc
func (h *psHost) advance(now float64) {
	if len(h.jobs) > 0 {
		each := (now - h.lastUpdate) / float64(len(h.jobs))
		for i := range h.jobs {
			h.jobs[i].remaining -= each
		}
	}
	h.lastUpdate = now
}

// reschedule cancels any pending completion and schedules the next one as
// a typed event — canceling and rescheduling recycles the engine's slot
// arena, so the churn of PS arrivals never allocates.
//
//sim:noalloc
func (h *psHost) reschedule(now float64) {
	h.pending.Cancel()
	if len(h.jobs) == 0 {
		return
	}
	minRemaining := math.Inf(1)
	for i := range h.jobs {
		if h.jobs[i].remaining < minRemaining {
			minRemaining = h.jobs[i].remaining
		}
	}
	if minRemaining < 0 {
		minRemaining = 0
	}
	delay := minRemaining * float64(len(h.jobs))
	h.pending = h.engine.ScheduleAfter(delay, sim.Ev{Kind: evPSComplete, Host: int32(h.index)})
}

// complete retires the job whose completion this event was scheduled for —
// any state change since scheduling would have canceled the event, so the
// current minimum-remaining job is finishing now — plus every other job
// within floating-point reach of zero. Retiring by comparison with the
// minimum (rather than an absolute epsilon) avoids a livelock when the
// remaining sliver is smaller than the clock's ulp and virtual time can no
// longer advance.
//
//sim:noalloc
func (h *psHost) complete(now float64) {
	h.advance(now)
	if len(h.jobs) == 0 {
		return
	}
	minRemaining := h.jobs[0].remaining
	for _, pj := range h.jobs[1:] {
		if pj.remaining < minRemaining {
			minRemaining = pj.remaining
		}
	}
	tol := minRemaining + 1e-9*(1+math.Abs(now))
	kept := h.jobs[:0]
	for _, pj := range h.jobs {
		if pj.remaining <= tol {
			// Record Start so that Wait() + Size == Departure - Arrival:
			// under PS the whole sharing-induced stretch counts as "wait".
			rec := JobRecord{
				ID:        pj.job.ID,
				Host:      h.index,
				Arrival:   pj.job.Arrival,
				Size:      pj.job.Size,
				Start:     now - pj.job.Size,
				Departure: now,
			}
			if h.onDone != nil {
				h.onDone(rec)
			}
		} else {
			kept = append(kept, pj) //lint:allow allocfree kept reuses jobs' backing array (kept := h.jobs[:0]); never grows
		}
	}
	h.jobs = kept
	h.reschedule(now)
}

// add admits a job at the current instant.
//
//sim:noalloc
func (h *psHost) add(job workload.Job, now float64) {
	h.advance(now)
	h.jobs = append(h.jobs, psJob{job: job, remaining: job.Size}) //lint:allow allocfree backing array grows to the high-water job count, then recycles
	h.reschedule(now)
}

// PSSystem is a distributed server whose hosts run Processor-Sharing
// instead of FCFS run-to-completion. Pull-based policies (Central) are not
// meaningful under PS — a PS host is never "busy" — so Assign must return a
// host index.
type PSSystem struct {
	engine  *sim.Engine
	hosts   []*psHost
	policy  Policy
	arrived int // arrivals so far: the next arrival's ordinal
	// The policy's kind, resolved once per run: exactly one is non-nil.
	workPolicy  WorkPolicy
	statePolicy StatePolicy

	// Host-selection indices (see System): the idle freelist is always
	// maintained, the jobs argmin activates on the first MinJobsHost query.
	// There is no incremental work index here — see MinWorkHost.
	idle    hostindex.BitSet
	jobsIdx hostindex.Tree
	jobsOn  bool
}

// newPS wires a PSSystem onto the engine sim.Run hands to RunPS.
// Panics if p is neither a WorkPolicy nor a StatePolicy.
func newPS(eng *sim.Engine, h int, p Policy, onComplete func(JobRecord)) *PSSystem {
	work, state := policyKinds(p)
	s := &PSSystem{engine: eng, policy: p, workPolicy: work, statePolicy: state}
	for i := 0; i < h; i++ {
		s.hosts = append(s.hosts, &psHost{index: i, engine: eng, onDone: onComplete})
	}
	s.idle.Reset(h)
	s.idle.SetAll()
	return s
}

// Hosts reports the host count.
func (s *PSSystem) Hosts() int { return len(s.hosts) }

// NumJobs reports jobs resident at host i.
func (s *PSSystem) NumJobs(i int) int { return len(s.hosts[i].jobs) }

// WorkLeft reports the unfinished work at host i at the current instant.
func (s *PSSystem) WorkLeft(i int) float64 {
	h := s.hosts[i]
	h.advance(s.engine.Now())
	total := 0.0
	for _, pj := range h.jobs {
		total += pj.remaining
	}
	return total
}

// Idle reports whether host i has no jobs.
func (s *PSSystem) Idle(i int) bool { return len(s.hosts[i].jobs) == 0 }

// NextIdleHost reports the lowest-indexed empty host, or -1.
func (s *PSSystem) NextIdleHost() int { return s.idle.Min() }

// MinWorkHost reports the host a lowest-index-wins scan of WorkLeft would
// pick.
//
// Unlike the FCFS System, the PS path answers this by an exact linear scan:
// a PS host's work left is a floating-point sum over resident jobs whose
// value depends on the whole advance() subdivision history, so an
// incrementally maintained drain-instant key could differ from the
// recomputed sum by an ulp and flip an exact tie. PS experiments run at
// small h (the fairness reference line), so the O(h) scan is not a hot
// path; the indexed fast path covers the FCFS many-hosts sweeps.
func (s *PSSystem) MinWorkHost() int { return s.minWorkIn(0, len(s.hosts)) }

// MinWorkHostIn is MinWorkHost over hosts lo <= i < hi.
// Panics if the range is empty or out of bounds.
func (s *PSSystem) MinWorkHostIn(lo, hi int) int {
	if lo < 0 || hi > len(s.hosts) || lo >= hi {
		panic(fmt.Sprintf("server: range [%d, %d) invalid for %d hosts", lo, hi, len(s.hosts)))
	}
	return s.minWorkIn(lo, hi)
}

//sim:noalloc
func (s *PSSystem) minWorkIn(lo, hi int) int {
	best, bestW := lo, s.WorkLeft(lo)
	for i := lo + 1; i < hi; i++ {
		if w := s.WorkLeft(i); w < bestW {
			best, bestW = i, w
		}
	}
	return best
}

// MinJobsHost reports the host with the fewest resident jobs, ties to the
// lowest index, from a lazily built incremental index. The first call
// allocates the index (so no //sim:noalloc here); steady state is
// allocation-free through the annotated Tree.Update path.
func (s *PSSystem) MinJobsHost() int {
	if !s.jobsOn {
		s.jobsIdx.Reset(len(s.hosts))
		for i := range s.hosts {
			s.jobsIdx.Update(i, float64(len(s.hosts[i].jobs)))
		}
		s.jobsOn = true
	}
	i, _ := s.jobsIdx.Min()
	return i
}

// noteJobs refreshes host i's standing in the idle freelist and (when
// active) the jobs argmin; call after any change to its resident set.
func (s *PSSystem) noteJobs(i int) {
	if len(s.hosts[i].jobs) == 0 {
		s.idle.Set(i)
	} else {
		s.idle.Clear(i)
	}
	if s.jobsOn {
		s.jobsIdx.Update(i, float64(len(s.hosts[i].jobs)))
	}
}

// HandleEvent dispatches the engine's typed events.
// Panics if the policy holds a job centrally or routes it outside the host
// range.
//
//sim:noalloc
func (s *PSSystem) HandleEvent(now float64, ev sim.Ev) {
	switch ev.Kind {
	case evPSArrival:
		job := ev.Job
		job.ID = s.arrived
		s.arrived++
		var idx int
		if s.workPolicy != nil {
			idx = s.workPolicy.Assign(job, s)
		} else {
			idx = s.statePolicy.Assign(job, s)
		}
		if idx < 0 || idx >= len(s.hosts) {
			if idx == Central && s.statePolicy != nil {
				panic(fmt.Sprintf("server: policy %q is a pull policy (Central-Queue): PS hosts have no central queue to hold a job",
					s.policy.Name()))
			}
			panic(fmt.Sprintf("server: PS policy %q returned host %d of %d",
				s.policy.Name(), idx, len(s.hosts)))
		}
		s.hosts[idx].add(job, now)
		s.noteJobs(idx)
	case evPSComplete:
		s.hosts[ev.Host].complete(now)
		s.noteJobs(int(ev.Host))
	}
}

// RunPS simulates the job list on PS hosts and aggregates metrics like Run.
// A record's Wait is the sharing-induced stretch (response minus size), so
// Wait + Size = Response holds exactly as under FCFS.
// The jobs slice is never written: hosts copy each job into host-local
// pjob state, so callers may share one job list across concurrent runs
// (the package's read-only input contract).
// Arrivals fire straight from the slice, as on FCFS hosts, so the heap
// holds only PS completions, and records carry each job's arrival ordinal
// as its ID.
// Panics if cfg.Hosts <= 0, cfg.Policy is nil, cfg.WarmupFraction is
// outside [0, 1), cfg.Policy is neither a WorkPolicy nor a StatePolicy,
// the jobs are not sorted by arrival, or the policy routes a job outside
// the host range. Panics if the policy is a pull policy (Central-Queue):
// the first time it holds a job centrally, since PS hosts have no central
// queue.
//
//sim:readonly jobs
func RunPS(jobs []workload.Job, cfg Config) *Result {
	validateConfig(cfg)
	warmup := int(cfg.WarmupFraction * float64(len(jobs)))
	res := newResult(cfg, len(jobs), warmup)
	res.PolicyName += "/PS"
	res.Interrupted = sim.Run(jobs, evPSArrival, sim.Options{Interrupt: cfg.Interrupt, OrderCheck: cfg.OrderCheck},
		func(eng *sim.Engine) sim.Handler {
			return newPS(eng, cfg.Hosts, cfg.Policy, func(rec JobRecord) {
				res.observe(rec, warmup, &cfg)
			})
		})
	return res
}
