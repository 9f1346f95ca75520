package sim

import (
	"math/rand/v2"
	"testing"

	"sita/internal/alloctest"
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
	e.setHandler(&r)
	e.Schedule(2, Ev{Kind: 7, Host: 3, Job: Job{ID: 42, Arrival: 2, Size: 5}})
	e.ScheduleAfter(1, Ev{Kind: 9, T0: 0.5})
	e.runFeed(nil, 0)
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
	var ran []int32
	e.setHandler(handlerFunc(func(now float64, ev Ev) { ran = append(ran, ev.Host) }))
	var hs []Handle
	for i := 0; i < 5; i++ {
		hs = append(hs, e.Schedule(float64(i+1), Ev{Host: int32(i)}))
	}
	hs[1].Cancel()
	hs[3].Cancel()
	hs[3].Cancel() // double-cancel is a no-op
	e.runFeed(nil, 0)
	if len(ran) != 3 || ran[0] != 0 || ran[1] != 2 || ran[2] != 4 {
		t.Fatalf("handlers ran for %v, want [0 2 4]", ran)
	}
}

func TestEngineResetRestartsClockAndSeq(t *testing.T) {
	var e Engine
	h := &nopHandler{}
	e.setHandler(h)
	for i := 0; i < 8; i++ {
		e.Schedule(float64(i+10), Ev{})
	}
	e.runFeed(nil, 0)
	if e.Now() != 17 || h.n != 8 {
		t.Fatalf("pre-reset now=%v handled=%d, want 17/8", e.Now(), h.n)
	}
	e.reset()
	if e.Now() != 0 || e.seq != 0 {
		t.Fatalf("post-reset now=%v seq=%d, want zeros", e.Now(), e.seq)
	}
	// The clock restarted, so scheduling before the old horizon must work.
	var fired []float64
	e.setHandler(handlerFunc(func(now float64, ev Ev) { fired = append(fired, now) }))
	e.Schedule(1, Ev{})
	e.runFeed(nil, 0)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("post-reset run fired %v, want [1]", fired)
	}
}

// TestEngineTieBreakAcrossReset is the seq-restart regression test: after
// reset the sequence counter returns to zero, so a replication scheduling
// the same simultaneous events observes the same FIFO tie-break as a fresh
// engine — not one skewed by leftover sequence numbers from the previous
// run.
func TestEngineTieBreakAcrossReset(t *testing.T) {
	run := func(e *Engine) []int {
		var order []int
		// Two fed arrivals at t=1; the first schedules a runtime event at
		// the same instant, and the feed's seqs must win the tie.
		e.setHandler(handlerFunc(func(now float64, ev Ev) {
			if ev.Kind == 1 {
				order = append(order, 100)
				return
			}
			if len(order) == 0 {
				e.Schedule(1.0, Ev{Kind: 1})
			}
			order = append(order, len(order))
		}))
		e.runFeed([]Job{{Arrival: 1}, {Arrival: 1}}, 0)
		return order
	}
	var e Engine
	first := run(&e)
	e.reset()
	second := run(&e)
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("runs fired %d/%d events, want 3 each", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("tie-break differs across reset: %v vs %v", first, second)
		}
	}
	// Feed seqs 0 and 1 precede the runtime event's seq 2.
	if second[2] != 100 {
		t.Fatalf("fed arrivals must fire before later runtime seqs at the same time: %v", second)
	}
}

// handlerFunc adapts a function to the Handler interface for tests.
type handlerFunc func(now float64, ev Ev)

func (f handlerFunc) HandleEvent(now float64, ev Ev) { f(now, ev) }

func TestEngineResetInvalidatesHandles(t *testing.T) {
	var e Engine
	h := e.Schedule(5, Ev{})
	e.reset()
	// The old handle's slot was recycled; cancel must not touch whatever
	// lives there now.
	fired := false
	e.setHandler(handlerFunc(func(float64, Ev) { fired = true }))
	e.Schedule(1, Ev{})
	h.Cancel()
	e.runFeed(nil, 0)
	if !fired {
		t.Fatal("stale handle canceled an event scheduled after reset")
	}
}

func TestAcquireReleaseReuse(t *testing.T) {
	e := acquire()
	e.setHandler(&nopHandler{})
	e.Schedule(3, Ev{})
	e.runFeed(nil, 0)
	release(e)
	e2 := acquire()
	// Whether or not the pool returned the same engine, it must be reset.
	if e2.Now() != 0 || e2.seq != 0 || len(e2.events) != 0 {
		t.Fatalf("acquired engine not reset: now=%v seq=%d pending=%d", e2.Now(), e2.seq, len(e2.events))
	}
	count := 0
	e2.setHandler(handlerFunc(func(float64, Ev) { count++ }))
	e2.Schedule(1, Ev{})
	e2.runFeed(nil, 0)
	if count != 1 {
		t.Fatalf("reused engine ran %d handlers, want 1", count)
	}
	release(e2)
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
	e.setHandler(&h)
	depth := 64 // concurrent events in flight, like busy hosts
	for i := 0; i < depth; i++ {
		e.Schedule(float64(i), Ev{Kind: 1})
	}
	fired := 0
	e.setHandler(handlerFunc(func(now float64, ev Ev) {
		fired++
		if fired < b.N {
			e.ScheduleAfter(1, Ev{Kind: 1})
		}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	e.runFeed(nil, 0)
}

// BenchmarkEngineScheduleCancel measures schedule-then-cancel churn, the
// PS-host pattern (every arrival cancels and reschedules a completion).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	var e Engine
	var h nopHandler
	e.setHandler(&h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hd := e.Schedule(float64(i)+1, Ev{Kind: 1})
		hd.Cancel()
		e.runFeed(nil, 0) // drain the canceled entry so the heap stays small
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
	e.setHandler(&h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.reset()
		for _, at := range times {
			e.Schedule(at, Ev{Kind: 1})
		}
		e.runFeed(nil, 0)
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
		e.setHandler(&h)
		for _, at := range times {
			e.Schedule(at, Ev{Kind: 1})
		}
		e.runFeed(nil, 0)
	}
}

// churnHandler drives a held engine the way the models do: each arrival
// schedules its departure after its size, and cancels and reschedules the
// previous arrival's departure (the PS hosts' pattern), so a run fires,
// cancels and recycles slots.
type churnHandler struct {
	e    *Engine
	last Handle
}

func (h *churnHandler) HandleEvent(now float64, ev Ev) {
	if ev.Kind != 1 {
		return
	}
	h.last.Cancel()
	h.e.ScheduleAfter(ev.Job.Size/2, Ev{Kind: 2, Job: ev.Job})
	h.last = h.e.ScheduleAfter(ev.Job.Size, Ev{Kind: 2, Job: ev.Job})
}

// TestHeldEngineAllocatesNothing is the kernel's row of the allocation
// contract (internal/server's TestReadOnlyContract holds the rest): an
// engine reused across runs, as the pool hands one to a sweep's cells,
// allocates nothing once its heap, slot arena and freelist have grown to
// the run's high water. The engine is held outside the measured run:
// alloctest.AllocsIn empties the pool first.
func TestHeldEngineAllocatesNothing(t *testing.T) {
	if alloctest.Race {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	jobs := make([]Job, 3000)
	for i := range jobs {
		jobs[i] = Job{ID: i, Arrival: float64(i / 2), Size: float64(1 + i%7)}
	}
	e := acquire()
	defer release(e)
	h := &churnHandler{e: e}
	run := func() {
		e.reset()
		e.setCancelCheck(func() bool { return false })
		e.setOrderCheck(true)
		e.setHandler(h)
		e.runFeed(jobs, 1)
	}
	run()
	if n := alloctest.AllocsIn(run); n != 0 {
		t.Fatalf("a held engine's second run allocated %d objects, want 0", n)
	}
}
