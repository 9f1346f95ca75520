// Package sim is a minimal deterministic discrete-event simulation kernel:
// a virtual clock and a time-ordered event queue with stable FIFO ordering
// for simultaneous events. The distributed-server model in internal/server
// runs on top of it.
//
// The kernel is allocation-free in steady state. Events live as values in
// an indexed binary heap — no per-event heap object, no per-event closure
// — and carry a small typed payload (Ev: kind + host index + job)
// dispatched to the engine's Handler. Cancellation uses generation-counted
// handles into a reusable slot arena, so a Handle stays 16 bytes and a
// stale handle (its event fired, or the engine was reset) is a safe no-op.
//
// Models run only through Run, one scoped call per simulation: it checks
// the feed is sorted, takes an engine from a process-wide pool, arms the
// run's optional checks, feeds the jobs and returns the engine on every
// exit, panics included. A sweep of thousands of simulation cells thus
// reuses a few engines' backing arrays instead of reallocating per cell,
// and no code outside this package can leak a pooled engine or leave a
// request's state on one.
//
// Serving paths that must bound a simulation's wall-clock cost pass a
// cooperative cancellation probe (Options.Interrupt): a zero-allocation
// callback polled every InterruptEvery loop steps. The probe is off by
// default and dropped when the run ends, so batch paths (cmd/sweep,
// results/) never observe it and their output stays byte-identical.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Job is the unit of simulated work typed events carry by value: an
// identifier, an arrival instant, and a service requirement in seconds.
// internal/workload aliases this type as its Job, so the kernel can carry
// one inside an event payload without an import cycle.
type Job struct {
	ID      int
	Arrival float64
	Size    float64
}

// Ev is a typed event payload. Kind is client-defined (each Handler owns
// its engine and therefore its kind namespace); Host, T0 and Job are
// free-form payload fields — conventionally the host index the event
// targets, an auxiliary timestamp (e.g. service start), and the job the
// event is about.
type Ev struct {
	Kind uint8
	Host int32
	T0   float64
	Job  Job
}

// Handler consumes typed events. An engine dispatches every event it
// fires to its handler; models (internal/server, internal/tags)
// implement Handler and switch on Ev.Kind.
type Handler interface {
	HandleEvent(now float64, ev Ev)
}

// entry is one element of the event heap: the firing time, the FIFO
// tie-break sequence, and the index of the slot holding the payload.
// Entries are small values, so sift operations move 24 bytes and never
// touch the allocator.
type entry struct {
	at  float64
	seq uint64
	id  int32
}

// slot holds a scheduled event's payload in the engine's slot arena.
// gen increments every time the slot is freed, invalidating outstanding
// Handles; canceled marks a lazily-canceled event still in the heap.
type slot struct {
	gen      uint32
	canceled bool
	ev       Ev
}

// Handle identifies a scheduled event so it can be canceled. The zero
// Handle is valid and cancels nothing.
type Handle struct {
	e   *Engine
	id  int32
	gen uint32
}

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled, or zero Handle is a no-op, as is canceling across an
// engine reset (the reset bumps every slot generation).
func (h Handle) Cancel() {
	if h.e == nil || int(h.id) >= len(h.e.slots) {
		return
	}
	s := &h.e.slots[h.id]
	if s.gen != h.gen || s.canceled {
		return
	}
	s.canceled = true
}

// Engine is a single-threaded discrete-event simulator. Run hands one to a
// model's build function; the model schedules events on it and reads its
// clock.
type Engine struct {
	now     float64
	seq     uint64
	events  []entry // binary min-heap on (at, seq)
	slots   []slot  // payload arena; entries point into it by index
	free    []int32 // freelist of reusable slot indices
	handler Handler

	// Cooperative cancellation (Options.Interrupt): checkFn is polled
	// every InterruptEvery loop steps; when it reports true the run stops
	// and interrupted is set. A nil checkFn (the default) disables the
	// check entirely, so CLI/sweep paths pay one predictable branch per
	// step and produce byte-identical output.
	checkCount  uint64
	checkFn     func() bool
	interrupted bool

	// Dispatch-order verification (Options.OrderCheck): when enabled, fire
	// asserts that events leave the heap in nondecreasing (time, seq)
	// order — the kernel's core determinism invariant. Off by default
	// (one predictable branch per event); the property harness
	// (internal/simtest) turns it on so any future heap regression fails
	// loudly inside the run that triggers it instead of surfacing as a
	// silently reordered record stream.
	orderCheck bool
	lastAt     float64
	lastSeq    uint64
}

// Now reports the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// setHandler installs the typed-event consumer.
func (e *Engine) setHandler(h Handler) { e.handler = h }

// less orders heap entries by (time, seq): virtual time first, schedule
// order among simultaneous events.
func (e *Engine) less(i, j int) bool {
	a, b := e.events[i], e.events[j]
	//lint:allow floateq exact event-time tie-break; equal times fall through to seq for determinism
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			return
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.events)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && e.less(r, l) {
			small = r
		}
		if !e.less(small, i) {
			return
		}
		e.events[i], e.events[small] = e.events[small], e.events[i]
		i = small
	}
}

// allocSlot takes a slot from the freelist, growing the arena if empty.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.slots = append(e.slots, slot{}) //lint:allow allocfree arena grows to the high-water event count, then the freelist recycles
	return int32(len(e.slots) - 1)
}

// freeSlot returns a slot to the freelist, invalidating outstanding
// handles and clearing the payload.
func (e *Engine) freeSlot(id int32) {
	s := &e.slots[id]
	s.gen++
	s.canceled = false
	s.ev = Ev{}
	e.free = append(e.free, id) //lint:allow allocfree freelist capacity tracks the arena; append never outgrows it in steady state
}

// push schedules one event value.
// Panics if t is before the current virtual time: it is always a model bug.
//
//sim:noalloc
func (e *Engine) push(t float64, seq uint64, ev Ev) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	id := e.allocSlot()
	s := &e.slots[id]
	s.ev = ev
	e.events = append(e.events, entry{at: t, seq: seq, id: id}) //lint:allow allocfree heap grows to the high-water event count, then reuses capacity
	e.siftUp(len(e.events) - 1)
	return Handle{e: e, id: id, gen: s.gen}
}

// Schedule schedules a typed event at absolute virtual time t, dispatched
// to the engine's Handler. Panics if t is in the past.
func (e *Engine) Schedule(t float64, ev Ev) Handle {
	h := e.push(t, e.seq, ev)
	e.seq++
	return h
}

// ScheduleAfter schedules a typed event delay time units from now.
// Panics if delay is negative.
func (e *Engine) ScheduleAfter(delay float64, ev Ev) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.Schedule(e.now+delay, ev)
}

// InterruptEvery is the cancellation probe's cadence: a run polls
// Options.Interrupt once per InterruptEvery loop steps. At millions of
// events per second that bounds the reaction time to well under a
// millisecond while keeping the poll far off the hot path. The direct
// recurrence in internal/server polls on the same cadence, per assigned
// job.
const InterruptEvery = 4096

// Options arms a run's optional checks. The zero value arms none, which
// costs one predictable branch per loop step and keeps output
// byte-identical.
type Options struct {
	// Interrupt, when non-nil, is polled every InterruptEvery loop steps
	// (an arrival or a popped, maybe canceled, entry); when it reports
	// true the run stops after the current event and Run reports the
	// interruption. It must be cheap and must not block (e.g. a
	// non-blocking context poll); the engine drops it when the run ends.
	Interrupt func() bool
	// OrderCheck arms the dispatch-order assertion: every fired event
	// must carry a (time, seq) pair no smaller, in lexicographic order,
	// than the previously fired one, and a violation panics. This is the
	// kernel invariant that makes simulations deterministic and record
	// streams reproducible; property tests (internal/simtest) run entire
	// simulations with it armed.
	OrderCheck bool
}

// Run runs one trace-driven simulation on a pooled engine and reports
// whether opts.Interrupt stopped it before the feed and the heap drained.
// It checks that jobs are sorted by arrival, takes an engine from the
// pool, arms opts, installs the handler build returns for that engine,
// and feeds the jobs (runFeed); the engine goes back to the pool on every
// exit, a panicking handler included, without the run's probe or
// handler. build may schedule initial events on the engine; the model it
// returns must not use the engine after Run returns.
// Panics, before an engine is taken, if a job fails FeedOK: the jobs are
// not sorted by arrival (a negative first arrival counts as unsorted), or
// a job's arrival is not finite or its size not finite and > 0.
func Run(jobs []Job, kind uint8, opts Options, build func(*Engine) Handler) (interrupted bool) {
	prev := 0.0
	for i, j := range jobs {
		if !FeedOK(j, prev) {
			panic("sim: " + FeedFault(i, j, prev))
		}
		prev = j.Arrival
	}
	e := acquire()
	defer release(e)
	e.setCancelCheck(opts.Interrupt)
	e.setOrderCheck(opts.OrderCheck)
	e.setHandler(build(e))
	e.runFeed(jobs, kind)
	return e.interrupted
}

// FeedOK reports whether job j may follow an arrival at prev in a
// simulation feed: its arrival is finite and no earlier than prev, and its
// size is finite and > 0. Every comparison is affirmative, so a NaN in
// either field fails it; a NaN arrival would otherwise pass every later
// job's ordering check, and a NaN or non-positive size would turn every
// slowdown into NaN.
func FeedOK(j Job, prev float64) bool {
	return j.Arrival >= prev && j.Arrival <= math.MaxFloat64 &&
		j.Size > 0 && j.Size <= math.MaxFloat64
}

// FeedFault describes why job i, read after an arrival at prev, fails
// FeedOK, naming the job's index.
func FeedFault(i int, j Job, prev float64) string {
	switch {
	case math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0):
		return fmt.Sprintf("job %d has non-finite arrival %v", i, j.Arrival)
	case j.Arrival < prev:
		return fmt.Sprintf("job %d arrives at %v before %v", i, j.Arrival, prev)
	default:
		return fmt.Sprintf("job %d has size %v, want finite and > 0", i, j.Size)
	}
}

// setCancelCheck installs the cooperative cancellation probe, polled
// every InterruptEvery loop steps; nil disables it.
func (e *Engine) setCancelCheck(fn func() bool) {
	e.checkFn = fn
	e.checkCount = 0
}

// setOrderCheck toggles the dispatch-order assertion (Options.OrderCheck).
func (e *Engine) setOrderCheck(on bool) {
	e.orderCheck = on
	e.lastAt = math.Inf(-1)
	e.lastSeq = 0
}

// runFeed runs a trace-driven simulation: each job, sorted by arrival,
// fires as Ev{Kind: kind, Job: job} straight from the slice, merged with
// the heap's events in (time, seq) order, so only runtime events enter
// the heap. The feed takes the next len(jobs) sequence numbers before
// anything fires: an arrival wins every tie with an event scheduled
// during the run, exactly as if every arrival had been scheduled up
// front. Arrivals are events in every other respect too — the handler
// sees them, the order check (which panics on an unsorted feed) sees them,
// and the cancel probe polls on them. The run ends when the feed and the
// heap are both drained, or when the probe fires, which drops the rest
// of the feed. The probe counts each step of the loop, an arrival or a
// popped entry, canceled or not. runFeed(nil, 0) drains the heap alone.
//
//sim:noalloc
func (e *Engine) runFeed(jobs []Job, kind uint8) {
	e.interrupted = false
	base := e.seq
	e.seq += uint64(len(jobs))
	for i := 0; !e.interrupted; {
		if i < len(jobs) && (len(e.events) == 0 || jobs[i].Arrival < e.events[0].at ||
			//lint:allow floateq exact event-time tie-break; equal times fall through to seq, as in less
			jobs[i].Arrival == e.events[0].at && base+uint64(i) < e.events[0].seq) {
			e.fire(jobs[i].Arrival, base+uint64(i), Ev{Kind: kind, Job: jobs[i]})
			i++
		} else if len(e.events) == 0 {
			return
		} else if at, seq, ev, live := e.pop(); live {
			e.fire(at, seq, ev)
		}
		if e.checkFn != nil {
			if e.checkCount++; e.checkCount >= InterruptEvery {
				e.checkCount = 0
				e.interrupted = e.checkFn()
			}
		}
	}
}

// pop removes the heap minimum and frees its slot — before dispatch, so
// the handler can reuse it — returning the entry and whether it was live.
//
//sim:noalloc
func (e *Engine) pop() (at float64, seq uint64, ev Ev, live bool) {
	top := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(0)
	}
	s := &e.slots[top.id]
	ev, live = s.ev, !s.canceled
	e.freeSlot(top.id)
	return top.at, top.seq, ev, live
}

// fire dispatches one live event to the handler at its time. Panics if
// the order check (Options.OrderCheck) is armed and the event is out of
// (time, seq) dispatch order — that is the check's entire job.
func (e *Engine) fire(at float64, seq uint64, ev Ev) {
	if e.orderCheck {
		//lint:allow floateq exact dispatch-order assertion: equal times fall through to the seq tie-break
		if at < e.lastAt || (at == e.lastAt && seq <= e.lastSeq) {
			panic(fmt.Sprintf("sim: dispatch order violated: event (t=%v, seq=%d) after (t=%v, seq=%d)",
				at, seq, e.lastAt, e.lastSeq))
		}
		e.lastAt, e.lastSeq = at, seq
	}
	e.now = at
	e.handler.HandleEvent(at, ev)
}

// reset returns the engine to its zero state — time 0, empty queue,
// sequence counter 0, no checks armed — while keeping the heap, slot
// arena, and freelist capacity for reuse. Every outstanding Handle is
// invalidated (its slot generation advances), so canceling across a reset
// is a no-op. The handler is kept.
func (e *Engine) reset() {
	for _, en := range e.events {
		e.freeSlot(en.id)
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.checkCount = 0
	e.checkFn = nil
	e.interrupted = false
	e.orderCheck = false
}

// enginePool recycles engines across simulation cells: a sweep's worker
// goroutines run thousands of cells but allocate only a handful of
// engines, and each reuse carries warmed-up heap and arena capacity with
// it.
var enginePool = sync.Pool{New: func() any {
	poolNews.Add(1)
	return new(Engine)
}}

// poolAcquires and poolNews count engines taken from the pool and fresh
// allocations the pool had to make, so long-running services can report
// engine reuse on their metrics surface. One atomic add per simulation
// cell is noise next to the cell's own cost.
var (
	poolAcquires atomic.Uint64
	poolNews     atomic.Uint64
)

// PoolStats reports how many engines Run has taken from the pool and how
// many of those were fresh allocations (rather than pool reuses) since
// process start. Safe for concurrent use.
func PoolStats() (acquires, news uint64) {
	return poolAcquires.Load(), poolNews.Load()
}

// acquire returns a reset engine from the pool.
func acquire() *Engine {
	poolAcquires.Add(1)
	e := enginePool.Get().(*Engine)
	e.reset()
	return e
}

// release returns an engine to the pool. The run's probe and handler are
// dropped first, so an idle pooled engine never retains a request-scoped
// closure or a model; the next acquire's reset clears the rest, which
// also makes handles from the finished run inert.
func release(e *Engine) {
	e.checkFn = nil
	e.handler = nil
	enginePool.Put(e)
}

// NewRNG derives a deterministic PCG generator from a seed and a stream
// index. Separate streams decouple, e.g., arrival times from job sizes so
// that changing one workload dimension does not perturb the other.
func NewRNG(seed uint64, stream uint64) *rand.Rand {
	// splitmix-style mixing so nearby (seed, stream) pairs decorrelate.
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewPCG(seed, z^(z>>31)))
}
