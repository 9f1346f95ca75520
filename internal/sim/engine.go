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
// stale handle (its event fired, or the engine was Reset) is a safe no-op.
// Engines are reusable via Reset and poolable via Acquire/Release, so a
// sweep of thousands of simulation cells reuses a few engines' backing
// arrays instead of reallocating per cell.
//
// Serving paths that must bound a simulation's wall-clock cost can install
// a cooperative cancellation probe (SetCancelCheck): a zero-allocation
// callback polled every N fired events. The probe is off by default and
// cleared on Reset/Acquire/Release, so batch paths (cmd/sweep, results/)
// never observe it and their output stays byte-identical.
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
// Engine.Reset (the reset bumps every slot generation).
func (h Handle) Cancel() {
	if h.e == nil || int(h.id) >= len(h.e.slots) {
		return
	}
	s := &h.e.slots[h.id]
	if s.gen != h.gen || s.canceled {
		return
	}
	s.canceled = true
	h.e.live--
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// a ready-to-use engine starting at time 0.
type Engine struct {
	now     float64
	seq     uint64
	events  []entry // binary min-heap on (at, seq)
	slots   []slot  // payload arena; entries point into it by index
	free    []int32 // freelist of reusable slot indices
	live    int     // scheduled and not canceled
	stopped bool
	fired   uint64
	handler Handler

	// Cooperative cancellation (SetCancelCheck): checkFn is polled every
	// checkEvery fired events; when it reports true the run stops and
	// interrupted is set. checkEvery == 0 (the default) disables the
	// check entirely, so CLI/sweep paths pay one predictable branch per
	// event and produce byte-identical output.
	checkEvery  uint64
	checkCount  uint64
	checkFn     func() bool
	interrupted bool

	// Dispatch-order verification (SetOrderCheck): when enabled, fire
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

// Fired reports how many events have executed, useful for progress and
// complexity assertions in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many live (scheduled and not canceled) events
// remain. Canceled events still occupying heap slots until drained are
// not counted.
func (e *Engine) Pending() int { return e.live }

// SetHandler installs the typed-event consumer. Schedule panics at fire
// time if no handler is installed.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

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

// popTop removes the heap minimum (the caller reads events[0] first).
//
//sim:noalloc
func (e *Engine) popTop() {
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(0)
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
	e.live++
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

// ReserveSeq reserves n consecutive FIFO sequence numbers and returns the
// first. A lazy event source (internal/server feeding arrivals one at a
// time) reserves one number per future event up front and schedules each
// event with ScheduleReserved(..., base+i, ...): simultaneous events then
// order exactly as if all n had been scheduled eagerly before anything
// else, which is what keeps results byte-identical across feeding
// strategies.
func (e *Engine) ReserveSeq(n int) uint64 {
	base := e.seq
	e.seq += uint64(n)
	return base
}

// ScheduleReserved schedules a typed event with a sequence number
// previously obtained from ReserveSeq. Panics if t is in the past or seq
// was not reserved (>= the engine's sequence counter): both are model
// bugs.
func (e *Engine) ScheduleReserved(t float64, seq uint64, ev Ev) Handle {
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: sequence %d not reserved (counter at %d)", seq, e.seq))
	}
	return e.push(t, seq, ev)
}

// Stop makes the current Run call return after the executing event
// completes.
func (e *Engine) Stop() { e.stopped = true }

// SetCancelCheck installs a cooperative cancellation probe: fn is polled
// once every `every` fired events during Run/RunUntil, and when it reports
// true the run stops after the current event and Interrupted reports true.
// every <= 0 (or fn == nil) disables the check — the default — so the
// probe costs nothing on paths that never set it and simulation output
// stays byte-identical. The probe itself allocates nothing on the engine
// side; fn should be equally cheap (e.g. a non-blocking context poll).
// Reset and Acquire clear the probe, so pooled engines never retain a
// request-scoped closure across reuse.
func (e *Engine) SetCancelCheck(every int, fn func() bool) {
	if every <= 0 || fn == nil {
		e.checkEvery, e.checkFn = 0, nil
		return
	}
	e.checkEvery = uint64(every)
	e.checkFn = fn
	e.checkCount = 0
}

// Interrupted reports whether the most recent Run/RunUntil stopped because
// the cancel check fired (as opposed to draining the queue, reaching the
// horizon, or Stop).
func (e *Engine) Interrupted() bool { return e.interrupted }

// SetOrderCheck toggles dispatch-order verification: with the check on,
// every fired event must carry a (time, seq) pair no smaller — in
// lexicographic order — than the previously fired one, and a violation
// panics. This is the kernel invariant that makes simulations
// deterministic and record streams reproducible; the check exists so
// property tests (internal/simtest) can run entire simulations with the
// invariant armed. Off by default; cleared by Reset (and therefore
// Acquire), like the cancel probe, so pooled engines never carry it into
// batch paths.
func (e *Engine) SetOrderCheck(on bool) {
	e.orderCheck = on
	e.lastAt = math.Inf(-1)
	e.lastSeq = 0
}

// Run executes events in time order until the queue drains or Stop is
// called.
//
//sim:entry
func (e *Engine) Run() {
	e.RunUntil(-1)
}

// RunUntil executes events with timestamp <= horizon (or all events when
// horizon < 0). The clock advances to each event's time; if the queue
// drains earlier the clock stays at the last event. Panics (from the
// dispatch path) if an event fires with no Handler installed.
//
//sim:entry
//sim:noalloc
func (e *Engine) RunUntil(horizon float64) {
	e.stopped = false
	e.interrupted = false
	for len(e.events) > 0 && !e.stopped {
		top := e.events[0]
		if horizon >= 0 && top.at > horizon {
			e.now = horizon
			return
		}
		e.popTop()
		e.fire(top)
		if e.checkEvery != 0 {
			if e.checkCount++; e.checkCount >= e.checkEvery {
				e.checkCount = 0
				if e.checkFn() {
					e.interrupted = true
					e.stopped = true
				}
			}
		}
	}
}

// Step executes exactly one non-canceled event, reporting whether one was
// available.
//
//sim:noalloc
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		top := e.events[0]
		e.popTop()
		if e.fire(top) {
			return true
		}
	}
	return false
}

// fire dispatches one popped heap entry, reporting whether it was live.
// The slot is freed before dispatch so the handler can schedule new
// events into the just-vacated slot (the generation bump keeps stale
// handles inert). Panics if the order check (SetOrderCheck) is armed and
// the entry is out of (time, seq) dispatch order — that is the check's
// entire job.
func (e *Engine) fire(top entry) bool {
	s := &e.slots[top.id]
	if s.canceled {
		e.freeSlot(top.id)
		return false
	}
	ev := s.ev
	e.freeSlot(top.id)
	e.live--
	if e.orderCheck {
		//lint:allow floateq exact dispatch-order assertion: equal times fall through to the seq tie-break
		if top.at < e.lastAt || (top.at == e.lastAt && top.seq <= e.lastSeq) {
			panic(fmt.Sprintf("sim: dispatch order violated: event (t=%v, seq=%d) after (t=%v, seq=%d)",
				top.at, top.seq, e.lastAt, e.lastSeq))
		}
		e.lastAt, e.lastSeq = top.at, top.seq
	}
	e.now = top.at
	e.fired++
	e.handler.HandleEvent(e.now, ev)
	return true
}

// Reset returns the engine to its zero state — time 0, empty queue,
// sequence counter 0 — while keeping the heap, slot arena, and freelist
// capacity for reuse. Every outstanding Handle is invalidated (its slot
// generation advances), so canceling across a Reset is a no-op. The
// handler is kept; replace it with SetHandler when repurposing the
// engine.
func (e *Engine) Reset() {
	for _, en := range e.events {
		e.freeSlot(en.id)
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.live = 0
	e.fired = 0
	e.stopped = false
	e.checkEvery = 0
	e.checkCount = 0
	e.checkFn = nil
	e.interrupted = false
	e.orderCheck = false
}

// enginePool recycles engines across simulation cells: a sweep's worker
// goroutines Acquire/Release thousands of times but allocate only a
// handful of engines, and each reuse carries warmed-up heap and arena
// capacity with it.
var enginePool = sync.Pool{New: func() any {
	poolNews.Add(1)
	return new(Engine)
}}

// poolAcquires and poolNews count Acquire calls and fresh allocations the
// pool had to make, so long-running services can report engine reuse on
// their metrics surface. One atomic add per simulation cell is noise next
// to the cell's own cost.
var (
	poolAcquires atomic.Uint64
	poolNews     atomic.Uint64
)

// PoolStats reports how many engines have been handed out by Acquire and
// how many of those were fresh allocations (rather than pool reuses) since
// process start. Safe for concurrent use.
func PoolStats() (acquires, news uint64) {
	return poolAcquires.Load(), poolNews.Load()
}

// Acquire returns a Reset engine from a process-wide reuse pool. Pair
// with Release when the simulation is done. Safe for concurrent use; the
// engine itself remains single-goroutine.
func Acquire() *Engine {
	poolAcquires.Add(1)
	e := enginePool.Get().(*Engine)
	e.Reset()
	e.handler = nil
	return e
}

// Release returns an engine to the reuse pool. The caller must not use
// the engine afterwards (outstanding Handles become inert only after the
// next Acquire's Reset, so do not Release an engine whose handles are
// still being canceled). The cancel check is dropped before pooling so a
// request-scoped closure is never retained by an idle engine.
func Release(e *Engine) {
	e.checkEvery, e.checkFn = 0, nil
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
