package sim

import "testing"

// chainHandler reschedules itself forever: an unbounded event supply for
// exercising the cancel probe.
type chainHandler struct{ e *Engine }

func (h *chainHandler) HandleEvent(now float64, ev Ev) {
	h.e.ScheduleAfter(1, Ev{Kind: 1})
}

func TestCancelCheckStopsRun(t *testing.T) {
	var e Engine
	h := &chainHandler{e: &e}
	e.SetHandler(h)
	e.Schedule(0, Ev{Kind: 1})

	polls := 0
	e.SetCancelCheck(10, func() bool {
		polls++
		return polls >= 3
	})
	e.RunFeed(nil, 0)

	if !e.Interrupted() {
		t.Fatal("engine did not report Interrupted after cancel check fired")
	}
	if polls != 3 {
		t.Fatalf("cancel check polled %d times, want 3", polls)
	}
	// 3 polls at an interval of 10 events = exactly 30 fired events.
	if e.Fired() != 30 {
		t.Fatalf("fired %d events before stopping, want 30", e.Fired())
	}
}

func TestCancelCheckOffByDefault(t *testing.T) {
	var e Engine
	done := false
	e.SetHandler(handlerFunc(func(float64, Ev) { done = true }))
	e.Schedule(1, Ev{})
	e.RunFeed(nil, 0)
	if !done || e.Interrupted() {
		t.Fatalf("plain run: done=%v interrupted=%v, want true/false", done, e.Interrupted())
	}
}

// TestCancelCheckClearedOnReuse ensures a pooled engine cannot observe a
// previous request's probe: Reset, Acquire and Release all drop it.
func TestCancelCheckClearedOnReuse(t *testing.T) {
	e := Acquire()
	e.SetCancelCheck(1, func() bool { return true })
	e.Reset()
	if e.checkEvery != 0 || e.checkFn != nil {
		t.Fatal("Reset kept the cancel check")
	}

	e.SetCancelCheck(1, func() bool { return true })
	Release(e)
	if e.checkEvery != 0 || e.checkFn != nil {
		t.Fatal("Release kept the cancel check")
	}
}

// TestCancelCheckDeterministicPrefix: with a probe installed that never
// fires, the event sequence is identical to a probe-free run.
func TestCancelCheckDeterministicPrefix(t *testing.T) {
	run := func(probe bool) (fired uint64, now float64) {
		var e Engine
		h := &countdownHandler{e: &e, left: 100}
		e.SetHandler(h)
		e.Schedule(0, Ev{Kind: 1})
		if probe {
			e.SetCancelCheck(7, func() bool { return false })
		}
		e.RunFeed(nil, 0)
		return e.Fired(), e.Now()
	}
	f1, t1 := run(false)
	f2, t2 := run(true)
	if f1 != f2 || t1 != t2 {
		t.Fatalf("probe perturbed the run: (%d, %v) vs (%d, %v)", f1, t1, f2, t2)
	}
}

type countdownHandler struct {
	e    *Engine
	left int
}

func (h *countdownHandler) HandleEvent(now float64, ev Ev) {
	if h.left--; h.left > 0 {
		h.e.ScheduleAfter(0.5, Ev{Kind: 1})
	}
}

// TestCancelCheckCountsFeedArrivals checks that the cancel probe polls on
// fed arrivals as on heap events: with no runtime events at all, a probe
// every 3 events that trips on its second poll stops the feed after
// exactly 6 arrivals.
func TestCancelCheckCountsFeedArrivals(t *testing.T) {
	var e Engine
	var h nopHandler
	e.SetHandler(&h)
	polls := 0
	e.SetCancelCheck(3, func() bool {
		polls++
		return polls == 2
	})
	e.RunFeed(make([]Job, 10), 1)
	if !e.Interrupted() || polls != 2 || h.n != 6 || e.Fired() != 6 {
		t.Fatalf("interrupted %v after %d polls, %d handled, %d fired; want true, 2, 6, 6",
			e.Interrupted(), polls, h.n, e.Fired())
	}
}
