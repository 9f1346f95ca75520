package sim

import (
	"math/rand/v2"
	"testing"
)

// recorder collects typed events in dispatch order.
type recorder struct {
	evs   []Ev
	times []float64
}

func (r *recorder) HandleEvent(now float64, ev Ev) {
	r.evs = append(r.evs, ev)
	r.times = append(r.times, now)
}

func TestEngineTypedDispatch(t *testing.T) {
	var e Engine
	var r recorder
	e.SetHandler(&r)
	e.Schedule(2, Ev{Kind: 7, Host: 3, Job: Job{ID: 42, Arrival: 2, Size: 5}})
	e.ScheduleAfter(1, Ev{Kind: 9, T0: 0.5})
	e.Run()
	if len(r.evs) != 2 {
		t.Fatalf("dispatched %d events, want 2", len(r.evs))
	}
	if r.times[0] != 1 || r.evs[0].Kind != 9 || r.evs[0].T0 != 0.5 {
		t.Fatalf("first event = %+v at %v, want kind 9 at t=1", r.evs[0], r.times[0])
	}
	if r.times[1] != 2 || r.evs[1].Kind != 7 || r.evs[1].Host != 3 || r.evs[1].Job.ID != 42 {
		t.Fatalf("second event = %+v at %v, want kind 7 host 3 job 42 at t=2", r.evs[1], r.times[1])
	}
}

func TestEnginePendingExcludesCanceled(t *testing.T) {
	var e Engine
	e.SetHandler(&nopHandler{})
	var hs []Handle
	for i := 0; i < 5; i++ {
		hs = append(hs, e.Schedule(float64(i+1), Ev{}))
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	hs[1].Cancel()
	hs[3].Cancel()
	if e.Pending() != 3 {
		t.Fatalf("pending after 2 cancels = %d, want 3 (canceled events must not count)", e.Pending())
	}
	hs[3].Cancel() // double-cancel must not double-decrement
	if e.Pending() != 3 {
		t.Fatalf("pending after double-cancel = %d, want 3", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending after run = %d, want 0", e.Pending())
	}
	if e.Fired() != 3 {
		t.Fatalf("fired = %d, want 3", e.Fired())
	}
}

func TestEngineResetRestartsClockAndSeq(t *testing.T) {
	var e Engine
	e.SetHandler(&nopHandler{})
	for i := 0; i < 8; i++ {
		e.Schedule(float64(i+10), Ev{})
	}
	e.Run()
	if e.Now() != 17 || e.Fired() != 8 {
		t.Fatalf("pre-reset now=%v fired=%d, want 17/8", e.Now(), e.Fired())
	}
	e.Reset()
	if e.Now() != 0 || e.Fired() != 0 || e.Pending() != 0 {
		t.Fatalf("post-reset now=%v fired=%d pending=%d, want zeros", e.Now(), e.Fired(), e.Pending())
	}
	// The clock restarted, so scheduling before the old horizon must work.
	var fired []float64
	e.SetHandler(handlerFunc(func(now float64, ev Ev) { fired = append(fired, now) }))
	e.Schedule(1, Ev{})
	e.Run()
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("post-reset run fired %v, want [1]", fired)
	}
}

// TestEngineTieBreakAcrossReset is the seq-restart regression test: after
// Reset the sequence counter returns to zero, so a replication scheduling
// the same simultaneous events observes the same FIFO tie-break as a fresh
// engine — not one skewed by leftover sequence numbers from the previous
// run.
func TestEngineTieBreakAcrossReset(t *testing.T) {
	run := func(e *Engine) []int {
		var order []int
		// Reserved block first (lazy-feed arrivals), then runtime events at
		// the same instant: reserved seqs must win the tie.
		base := e.ReserveSeq(2)
		e.Schedule(1.0, Ev{Kind: 1})
		e.ScheduleReserved(1.0, base+1, Ev{})
		e.ScheduleReserved(1.0, base, Ev{})
		e.SetHandler(handlerFunc(func(now float64, ev Ev) {
			if ev.Kind == 1 {
				order = append(order, 100)
			} else {
				order = append(order, len(order))
			}
		}))
		e.Run()
		return order
	}
	var e Engine
	first := run(&e)
	e.Reset()
	second := run(&e)
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("runs fired %d/%d events, want 3 each", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("tie-break differs across Reset: %v vs %v", first, second)
		}
	}
	// Reserved seqs 0 and 1 precede the Schedule event's seq 2.
	if second[2] != 100 {
		t.Fatalf("reserved seqs must fire before later runtime seqs at the same time: %v", second)
	}
}

// handlerFunc adapts a function to the Handler interface for tests.
type handlerFunc func(now float64, ev Ev)

func (f handlerFunc) HandleEvent(now float64, ev Ev) { f(now, ev) }

func TestEngineResetInvalidatesHandles(t *testing.T) {
	var e Engine
	h := e.Schedule(5, Ev{})
	e.Reset()
	// The old handle's slot was recycled; cancel must not touch whatever
	// lives there now.
	fired := false
	e.SetHandler(handlerFunc(func(float64, Ev) { fired = true }))
	e.Schedule(1, Ev{})
	h.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("stale cancel changed pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle canceled an event scheduled after Reset")
	}
}

func TestEngineScheduleReservedUnreservedPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling an unreserved sequence")
		}
	}()
	e.ScheduleReserved(1, 0, Ev{}) // nothing reserved: counter is 0
}

// TestEngineReserveSeqMatchesEagerOrder checks the determinism contract
// behind lazy arrival feeding: scheduling a reserved block lazily fires in
// exactly the order of scheduling everything eagerly up front.
func TestEngineReserveSeqMatchesEagerOrder(t *testing.T) {
	arrivals := []float64{1, 1, 2, 2, 2, 3}

	var eager Engine
	var eagerOrder []int
	eager.SetHandler(handlerFunc(func(now float64, ev Ev) { eagerOrder = append(eagerOrder, int(ev.Host)) }))
	for i, at := range arrivals {
		eager.Schedule(at, Ev{Kind: 1, Host: int32(i)})
	}
	// Runtime events racing the arrivals at t=2.
	eager.Schedule(2, Ev{Kind: 2, Host: 100})
	eager.Run()

	var lazy Engine
	var lazyOrder []int
	base := lazy.ReserveSeq(len(arrivals))
	next := 0
	var feed func()
	feed = func() {
		if next >= len(arrivals) {
			return
		}
		i := next
		lazy.ScheduleReserved(arrivals[i], base+uint64(i), Ev{Kind: 1, Host: int32(i)})
		next++
	}
	lazy.SetHandler(handlerFunc(func(now float64, ev Ev) {
		if ev.Kind == 1 {
			feed()
		}
		lazyOrder = append(lazyOrder, int(ev.Host))
	}))
	feed()
	lazy.Schedule(2, Ev{Kind: 2, Host: 100})
	lazy.Run()

	if len(eagerOrder) != len(lazyOrder) {
		t.Fatalf("eager fired %d, lazy fired %d", len(eagerOrder), len(lazyOrder))
	}
	for i := range eagerOrder {
		if eagerOrder[i] != lazyOrder[i] {
			t.Fatalf("lazy feeding reordered simultaneous events:\neager %v\nlazy  %v", eagerOrder, lazyOrder)
		}
	}
}

func TestAcquireReleaseReuse(t *testing.T) {
	e := Acquire()
	e.SetHandler(&nopHandler{})
	e.Schedule(3, Ev{})
	e.Run()
	Release(e)
	e2 := Acquire()
	// Whether or not the pool returned the same engine, it must be reset.
	if e2.Now() != 0 || e2.Pending() != 0 || e2.Fired() != 0 {
		t.Fatalf("acquired engine not reset: now=%v pending=%d fired=%d", e2.Now(), e2.Pending(), e2.Fired())
	}
	count := 0
	e2.SetHandler(handlerFunc(func(float64, Ev) { count++ }))
	e2.Schedule(1, Ev{})
	e2.Run()
	if count != 1 {
		t.Fatalf("reused engine fired %d events, want 1", count)
	}
	Release(e2)
}

// nopHandler discards events; used by the steady-state benchmarks.
type nopHandler struct{ n int }

func (h *nopHandler) HandleEvent(float64, Ev) { h.n++ }

// BenchmarkEngineTypedSteadyState measures the self-perpetuating hot loop
// of a simulation: each fired event schedules the next. After warmup this
// must not allocate (0 allocs/op).
func BenchmarkEngineTypedSteadyState(b *testing.B) {
	var e Engine
	var h nopHandler
	e.SetHandler(&h)
	depth := 64 // concurrent events in flight, like busy hosts
	for i := 0; i < depth; i++ {
		e.Schedule(float64(i), Ev{Kind: 1})
	}
	fired := 0
	e.SetHandler(handlerFunc(func(now float64, ev Ev) {
		fired++
		if fired < b.N {
			e.ScheduleAfter(1, Ev{Kind: 1})
		}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineScheduleCancel measures schedule-then-cancel churn, the
// PS-host pattern (every arrival cancels and reschedules a completion).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	var e Engine
	var h nopHandler
	e.SetHandler(&h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hd := e.Schedule(float64(i)+1, Ev{Kind: 1})
		hd.Cancel()
		e.Step() // drain the canceled entry so the heap stays small
	}
}

// BenchmarkEngineResetReuse measures a full small simulation per op on a
// single reused engine — the sweep runner's per-cell pattern.
func BenchmarkEngineResetReuse(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	times := make([]float64, 1000)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	var e Engine
	var h nopHandler
	e.SetHandler(&h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for _, at := range times {
			e.Schedule(at, Ev{Kind: 1})
		}
		e.Run()
	}
}

// BenchmarkEngineFreshPerRun is the contrast case for ResetReuse: a brand
// new engine per simulation, growing its arrays from nothing each time.
func BenchmarkEngineFreshPerRun(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	times := make([]float64, 1000)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	var h nopHandler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e Engine
		e.SetHandler(&h)
		for _, at := range times {
			e.Schedule(at, Ev{Kind: 1})
		}
		e.Run()
	}
}
