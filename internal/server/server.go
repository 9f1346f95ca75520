// Package server simulates the paper's architectural model: a distributed
// server of h identical hosts fed by one job stream through a dispatcher.
// Each host serves its queue in FCFS order, one job at a time,
// run-to-completion (no preemption, no time-sharing). The dispatcher runs a
// pluggable task assignment policy of one of two kinds: a WorkPolicy reads
// at most host work (WorkView), which lets Run replay it on the heap-free
// direct recurrence; a StatePolicy reads the full View, job counts and the
// idle freelist included, and may hold jobs at the dispatcher until a host
// goes idle (pull-based policies such as Central-Queue).
//
// A simulation run is deterministic and single-goroutine: given the same
// policy, job stream, and options, Run and RunPS produce bit-identical
// Results on every execution. Steady-state runs are allocation-free —
// host queues, the event heap, and statistics accumulators all live in
// reusable storage owned by the sim.Engine. Concurrency happens one
// level up (internal/runner for sweeps, internal/service for the HTTP
// server), always with one engine, one policy, and one Result per cell.
//
// Read-only input contract: Run and RunPS never write the jobs slice they
// are given — each path stamps arrival ordinals on its own job copies —
// and the FCFS and PS systems read job values out of the feed without
// aliasing slice elements. This is what lets internal/streamcache hand one
// generated stream to every policy at a load point, copy-free and from
// many goroutines at once. The contract is enforced by the //sim:readonly
// directive (checked by the readonly analyzer under cmd/simvet) and by
// checksum tests in readonly_test.go; any future mutation of the input
// must copy first.
package server

import (
	"fmt"

	"sita/internal/hostindex"
	"sita/internal/sim"
	"sita/internal/workload"
)

// Central is returned by a Policy to hold the arriving job in the
// dispatcher's central queue instead of pushing it to a host.
const Central = -1

// CentralOrder selects the order in which the dispatcher's central queue
// releases held jobs to idle hosts.
type CentralOrder int

// Central-queue disciplines.
const (
	// CentralFCFS releases held jobs in arrival order (the paper's
	// Central-Queue policy, equivalent to Least-Work-Left).
	CentralFCFS CentralOrder = iota
	// CentralSJF releases the shortest held job first — the
	// "favor short jobs" direction the paper's conclusions discuss, which
	// improves mean slowdown but starves long jobs under heavy tails.
	CentralSJF
)

// Typed-event kinds for this package's simulations (the FCFS System and
// the PS variant each own their engine, so one namespace serves both).
const (
	evArrival    uint8 = iota + 1 // Ev.Job arrives at the dispatcher
	evDepart                      // Ev.Job finishes on host Ev.Host (service began at Ev.T0)
	evPSArrival                   // Ev.Job arrives at the PS dispatcher
	evPSComplete                  // PS host Ev.Host reaches its next completion
)

// WorkView is the system state a work policy may consult when assigning
// a job: the host count and host work. All queries refer to the instant
// of the arrival being dispatched.
//
// The per-host queries (WorkLeft, Idle) cost O(1) each, so a policy
// scanning all hosts pays O(h) per arrival. The argmin queries
// (MinWorkHost, MinWorkHostIn here, MinJobsHost and NextIdleHost on
// View) answer the scans the standard policies actually perform from
// incrementally maintained indices in O(log h) or better, and are
// guaranteed to return exactly the host a lowest-index-wins linear scan
// would: strictly smallest value first, lowest host index among exact
// ties (see ARCHITECTURE.md § Host-selection indices for the tie-break
// argument).
type WorkView interface {
	// Hosts reports the number of hosts.
	Hosts() int
	// WorkLeft reports the total unfinished work at host i, including the
	// remainder of the running job.
	WorkLeft(i int) float64
	// Idle reports whether host i has no work at all.
	Idle(i int) bool
	// MinWorkHost reports the host a lowest-index-wins scan of WorkLeft
	// over all hosts would pick.
	MinWorkHost() int
	// MinWorkHostIn is MinWorkHost restricted to hosts lo <= i < hi (the
	// grouped-SITA within-group dispatch). Panics if the range is empty
	// or out of bounds: group bounds are the policy's contract.
	MinWorkHostIn(lo, hi int) int
}

// View is the full system state a state policy may consult: host work
// plus job counts and the idle freelist.
type View interface {
	WorkView
	// NumJobs reports how many jobs are at host i (queued plus running).
	NumJobs(i int) int
	// MinJobsHost reports the host a lowest-index-wins scan of NumJobs
	// would pick.
	MinJobsHost() int
	// NextIdleHost reports the lowest-indexed host with no work at all,
	// or -1 when every host is busy.
	NextIdleHost() int
}

// Policy is a task assignment rule. Every policy is a WorkPolicy or a
// StatePolicy; the kind is its Assign method's view parameter, so what a
// policy may read is fixed by its type. Run and RunPS panic, naming the
// policy, on one that is neither. Policies may be stateful (Round-Robin)
// and are therefore not shared across concurrent simulations.
type Policy interface {
	Name() string
}

// WorkPolicy is a policy whose Assign reads at most host work, through a
// WorkView, and returns a host index in [0, v.Hosts()), never Central.
// Reading nothing qualifies: Random, Round-Robin and SITA are work
// policies beside Least-Work-Left and grouped SITA. Run replays every
// work policy on the heap-free direct recurrence (direct.go), whose view
// answers host work from the per-host Lindley clocks and nothing else; a
// returned Central panics there.
type WorkPolicy interface {
	Policy
	Assign(job workload.Job, v WorkView) int
}

// StatePolicy is a policy whose Assign reads the full View: job counts
// or the idle freelist (Shortest-Queue), or a central queue it may hold
// the job in by returning Central (Central-Queue). It returns a host
// index in [0, v.Hosts()) or Central, and always runs on the event-heap
// engine.
type StatePolicy interface {
	Policy
	Assign(job workload.Job, v View) int
}

// policyKinds resolves p's kind once per run: exactly one of the results
// is non-nil. Panics naming p if p is neither kind.
func policyKinds(p Policy) (WorkPolicy, StatePolicy) {
	switch p := p.(type) {
	case WorkPolicy:
		return p, nil
	case StatePolicy:
		return nil, p
	}
	panic(fmt.Sprintf("server: policy %q is neither a WorkPolicy nor a StatePolicy: its Assign must take a WorkView or a View", p.Name()))
}

// JobRecord is the outcome of one simulated job.
type JobRecord struct {
	ID        int
	Host      int
	Arrival   float64
	Size      float64
	Start     float64
	Departure float64
}

// Wait reports time spent queued.
func (r JobRecord) Wait() float64 { return r.Start - r.Arrival }

// Response reports arrival-to-completion time, computed as wait plus
// service so that a job served immediately has response exactly equal to
// its size (Departure - Arrival can round below Size in floating point).
func (r JobRecord) Response() float64 { return r.Wait() + r.Size }

// Slowdown reports response time divided by service requirement (>= 1).
func (r JobRecord) Slowdown() float64 { return r.Response() / r.Size }

// host is the simulator's per-host state. The waiting queue is a
// head-indexed FIFO over a reusable backing array, so steady-state
// enqueue/dequeue cycles stop touching the allocator once the array has
// grown to the high-water mark.
type host struct {
	queue   []workload.Job // waiting jobs, FIFO from queue[head:]
	head    int
	running bool
	readyAt float64 // when all currently assigned work completes
	jobs    int     // queued+running
}

// queued reports how many jobs are waiting (excluding the one in service).
func (h *host) queued() int { return len(h.queue) - h.head }

// enqueue appends a waiting job.
//
//sim:noalloc
func (h *host) enqueue(j workload.Job) { h.queue = append(h.queue, j) } //lint:allow allocfree queue grows to the high-water depth, then dequeue recycles it

// dequeue removes and returns the oldest waiting job, recycling the
// backing array once drained.
//
//sim:noalloc
func (h *host) dequeue() workload.Job {
	j := h.queue[h.head]
	h.head++
	if h.head == len(h.queue) {
		h.queue = h.queue[:0]
		h.head = 0
	}
	return j
}

// centralItem is one held job plus its insertion sequence, the FIFO
// tie-break among equal sizes.
type centralItem struct {
	job workload.Job
	seq uint64
}

// centralQueue holds jobs at the dispatcher for pull policies. FCFS mode
// is a head-indexed FIFO like the per-host queues; SJF mode is a binary
// min-heap on (size, insertion seq), so a pull is O(log n) instead of the
// former O(n) scan while preserving that scan's stable pick: strictly
// smallest size first, earliest-held first among exact ties.
type centralQueue struct {
	order CentralOrder
	fifo  []workload.Job
	head  int
	heap  []centralItem
	seq   uint64
}

// Len reports how many jobs are held.
func (q *centralQueue) Len() int {
	if q.order == CentralSJF {
		return len(q.heap)
	}
	return len(q.fifo) - q.head
}

// Push holds one job.
//
//sim:noalloc
func (q *centralQueue) Push(j workload.Job) {
	if q.order != CentralSJF {
		q.fifo = append(q.fifo, j) //lint:allow allocfree fifo grows to the high-water depth, then Pop recycles it
		return
	}
	q.heap = append(q.heap, centralItem{job: j, seq: q.seq}) //lint:allow allocfree heap grows to the high-water depth, then shrinks in place
	q.seq++
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// Pop releases the next job under the queue's discipline.
//
//sim:noalloc
func (q *centralQueue) Pop() workload.Job {
	if q.order != CentralSJF {
		j := q.fifo[q.head]
		q.head++
		if q.head == len(q.fifo) {
			q.fifo = q.fifo[:0]
			q.head = 0
		}
		return j
	}
	j := q.heap[0].job
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && q.less(r, l) {
			small = r
		}
		if !q.less(small, i) {
			break
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
	return j
}

// less orders the SJF heap by (size, insertion seq).
func (q *centralQueue) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	//lint:allow floateq exact size tie-break; equal sizes fall through to seq for FIFO stability
	if a.job.Size != b.job.Size {
		return a.job.Size < b.job.Size
	}
	return a.seq < b.seq
}

// System is the simulated distributed server on FCFS hosts, the engine
// path's model: runEngine builds one per run.
type System struct {
	engine *sim.Engine
	// now is the instant of the event being handled, and after the run
	// of the last one, so MeanQueueLength needs no engine once sim.Run
	// has returned it to the pool.
	now    float64
	hosts  []host
	policy Policy
	// The policy's kind, resolved once per run: exactly one is non-nil.
	workPolicy  WorkPolicy
	statePolicy StatePolicy

	central centralQueue // dispatcher queue for pull policies

	onComplete func(JobRecord)
	arrived    int // arrivals so far: the next arrival's ordinal

	// Little's-law accounting: time-integral of the number of waiting jobs
	// (queued at hosts or held centrally, excluding jobs in service).
	queueArea   float64
	waitingJobs int
	lastAccrual float64

	// Host-selection indices. The idle freelist is always maintained (two
	// bit operations per job); the work and jobs argmin indices activate
	// on a policy's first MinWorkHost/MinJobsHost query, so policies that
	// never ask pay nothing beyond the bitset. Once active they are
	// updated incrementally — O(log h) per host state change, no
	// allocations — by the arrive/depart/startNextCentral transitions.
	idle    hostindex.BitSet   // hosts with no jobs at all
	work    hostindex.TimedMin // hosts keyed by readyAt; idle hosts at -Inf
	jobsIdx hostindex.Tree     // hosts keyed by their job count
	workOn  bool
	jobsOn  bool
}

// newSystem wires a System onto the engine sim.Run hands to runEngine.
// Panics if p is neither a WorkPolicy nor a StatePolicy.
func newSystem(eng *sim.Engine, h int, p Policy, order CentralOrder, onComplete func(JobRecord)) *System {
	work, state := policyKinds(p)
	s := &System{
		engine:      eng,
		hosts:       make([]host, h),
		policy:      p,
		workPolicy:  work,
		statePolicy: state,
		central:     centralQueue{order: order},
		onComplete:  onComplete,
	}
	s.idle.Reset(h)
	s.idle.SetAll()
	return s
}

// View interface implementation: the System itself is the policy's view,
// whichever kind the policy is.

// Hosts reports the host count.
func (s *System) Hosts() int { return len(s.hosts) }

// NumJobs reports queued+running jobs at host i.
func (s *System) NumJobs(i int) int { return s.hosts[i].jobs }

// WorkLeft reports remaining work at host i at the current instant.
func (s *System) WorkLeft(i int) float64 {
	left := s.hosts[i].readyAt - s.now
	if left < 0 || !s.hosts[i].running && s.hosts[i].queued() == 0 {
		return 0
	}
	return left
}

// Idle reports whether host i is empty.
func (s *System) Idle(i int) bool { return s.hosts[i].jobs == 0 }

// NextIdleHost reports the lowest-indexed empty host, or -1.
func (s *System) NextIdleHost() int { return s.idle.Min() }

// MinWorkHost reports the host with the least unfinished work, ties to
// the lowest index — the pick of a linear WorkLeft scan, in O(log h).
func (s *System) MinWorkHost() int {
	if !s.workOn {
		s.buildWorkIndex()
	}
	return s.work.ArgMin(s.now)
}

// MinWorkHostIn is MinWorkHost over hosts lo <= i < hi.
// Panics if the range is empty or out of bounds.
func (s *System) MinWorkHostIn(lo, hi int) int {
	if !s.workOn {
		s.buildWorkIndex()
	}
	return s.work.ArgMinRange(lo, hi, s.now)
}

// MinJobsHost reports the host with the fewest jobs, ties to the lowest
// index — the pick of a linear NumJobs scan, in O(log h).
func (s *System) MinJobsHost() int {
	if !s.jobsOn {
		s.jobsIdx.Reset(len(s.hosts))
		for i := range s.hosts {
			s.jobsIdx.Update(i, float64(s.hosts[i].jobs))
		}
		s.jobsOn = true
	}
	i, _ := s.jobsIdx.Min()
	return i
}

// buildWorkIndex activates the work argmin on a policy's first query:
// hosts with work enter the tree keyed by their drain instant (readyAt),
// empty hosts stay drained (key -Inf). From here on every host state
// change keeps the index current.
func (s *System) buildWorkIndex() {
	s.work.Reset(len(s.hosts))
	for i := range s.hosts {
		if s.hosts[i].jobs > 0 {
			s.work.SetKey(i, s.hosts[i].readyAt)
		}
	}
	s.workOn = true
}

// HandleEvent dispatches the engine's typed events.
//
//sim:noalloc
func (s *System) HandleEvent(now float64, ev sim.Ev) {
	s.now = now
	switch ev.Kind {
	case evArrival:
		s.arrive(ev.Job, now)
	case evDepart:
		s.depart(int(ev.Host), JobRecord{
			ID: ev.Job.ID, Host: int(ev.Host),
			Arrival: ev.Job.Arrival, Size: ev.Job.Size,
			Start: ev.T0, Departure: now,
		}, now)
	}
}

// arrive stamps one job with its arrival ordinal and routes it through the
// policy at its arrival instant. Only a state policy may hold the job
// centrally.
// Panics if the policy returns a host outside the valid range — Central
// included, for a work policy — which is a contract violation by the
// Policy implementation.
//
//sim:noalloc
func (s *System) arrive(job workload.Job, now float64) {
	job.ID = s.arrived
	s.arrived++
	var idx int
	if s.workPolicy != nil {
		idx = s.workPolicy.Assign(job, s)
	} else if idx = s.statePolicy.Assign(job, s); idx == Central {
		// Hold at the dispatcher; a host will pull it when free. If some
		// host is already idle the policy should have returned it, but be
		// robust and drain immediately — the freelist hands out idle hosts
		// lowest-index-first, exactly the order the old full scan used, in
		// O(1) per started job instead of O(h) per arrival.
		s.accrueQueue(now)
		s.waitingJobs++
		s.central.Push(job)
		for s.central.Len() > 0 {
			i := s.idle.Min()
			if i < 0 {
				break
			}
			s.startNextCentral(i, now)
		}
		return
	}
	if idx < 0 || idx >= len(s.hosts) {
		panic(fmt.Sprintf("server: policy %q returned host %d of %d", s.policy.Name(), idx, len(s.hosts)))
	}
	h := &s.hosts[idx]
	h.jobs++
	s.noteJobs(idx)
	if h.running {
		// The job's work joins the backlog now; start() must not add it
		// again when the job is later dequeued.
		s.accrueQueue(now)
		s.waitingJobs++
		h.enqueue(job)
		h.readyAt += job.Size
		s.noteWork(idx)
		return
	}
	s.idle.Clear(idx)
	h.readyAt = now + job.Size
	s.noteWork(idx)
	s.start(idx, job, now)
}

// start begins service for a job whose work is already accounted in the
// host's readyAt backlog. The departure event carries the job and the
// service-start instant, from which the JobRecord is rebuilt bit-exactly
// at completion.
//
//sim:noalloc
func (s *System) start(idx int, job workload.Job, now float64) {
	h := &s.hosts[idx]
	h.running = true
	s.engine.Schedule(now+job.Size, sim.Ev{Kind: evDepart, Host: int32(idx), T0: now, Job: job})
}

//sim:noalloc
func (s *System) depart(idx int, rec JobRecord, now float64) {
	h := &s.hosts[idx]
	h.running = false
	h.jobs--
	s.noteJobs(idx)
	if s.onComplete != nil {
		s.onComplete(rec)
	}
	if h.queued() > 0 {
		// readyAt already accounts for the queued work; the work index
		// needs no update.
		next := h.dequeue()
		s.accrueQueue(now)
		s.waitingJobs--
		s.start(idx, next, now)
		return
	}
	if s.central.Len() > 0 {
		s.startNextCentral(idx, now)
		return
	}
	s.idle.Set(idx)
	if s.workOn {
		s.work.SetZero(idx)
	}
}

//sim:noalloc
func (s *System) startNextCentral(idx int, now float64) {
	job := s.central.Pop()
	s.accrueQueue(now)
	s.waitingJobs--
	s.idle.Clear(idx)
	h := &s.hosts[idx]
	h.jobs++
	h.readyAt = now + job.Size
	s.noteJobs(idx)
	s.noteWork(idx)
	s.start(idx, job, now)
}

// noteJobs propagates host i's job count into the jobs argmin, when active.
func (s *System) noteJobs(i int) {
	if s.jobsOn {
		s.jobsIdx.Update(i, float64(s.hosts[i].jobs))
	}
}

// noteWork propagates host i's drain instant into the work argmin, when
// active. Only call when host i has live work (jobs > 0).
func (s *System) noteWork(i int) {
	if s.workOn {
		s.work.SetKey(i, s.hosts[i].readyAt)
	}
}

// accrueQueue advances the waiting-jobs time integral to the current
// instant; call before every change to the waiting population.
func (s *System) accrueQueue(now float64) {
	s.queueArea += float64(s.waitingJobs) * (now - s.lastAccrual)
	s.lastAccrual = now
}

// MeanQueueLength reports the time-averaged number of waiting jobs up to
// the last handled event — E[Q] in the paper's theorem 1, for checking
// Little's law E[Q] = lambda*E[W] against the simulated mean wait.
func (s *System) MeanQueueLength() float64 {
	if s.now == 0 {
		return 0
	}
	s.accrueQueue(s.now)
	return s.queueArea / s.now
}
