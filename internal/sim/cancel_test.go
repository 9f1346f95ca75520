package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// chainHandler reschedules itself forever: an unbounded event supply for
// exercising the cancel probe. n counts the events it handled.
type chainHandler struct {
	e *Engine
	n int
}

func (h *chainHandler) HandleEvent(now float64, ev Ev) {
	h.n++
	h.e.ScheduleAfter(1, Ev{Kind: 1})
}

func TestCancelCheckStopsRun(t *testing.T) {
	var e Engine
	h := &chainHandler{e: &e}
	e.setHandler(h)
	e.Schedule(0, Ev{Kind: 1})

	polls := 0
	e.setCancelCheck(func() bool {
		polls++
		return polls >= 3
	})
	e.runFeed(nil, 0)

	if !e.interrupted {
		t.Fatal("engine did not report an interruption after the cancel check fired")
	}
	if polls != 3 {
		t.Fatalf("cancel check polled %d times, want 3", polls)
	}
	// 3 polls, one per InterruptEvery events.
	if h.n != 3*InterruptEvery {
		t.Fatalf("handled %d events before stopping, want %d", h.n, 3*InterruptEvery)
	}
}

func TestCancelCheckOffByDefault(t *testing.T) {
	var e Engine
	done := false
	e.setHandler(handlerFunc(func(float64, Ev) { done = true }))
	e.Schedule(1, Ev{})
	e.runFeed(nil, 0)
	if !done || e.interrupted {
		t.Fatalf("plain run: done=%v interrupted=%v, want true/false", done, e.interrupted)
	}
}

// TestCancelCheckClearedOnReuse ensures a pooled engine cannot observe a
// previous request's probe: reset, acquire and release all drop it.
func TestCancelCheckClearedOnReuse(t *testing.T) {
	e := acquire()
	e.setCancelCheck(func() bool { return true })
	e.reset()
	if e.checkFn != nil {
		t.Fatal("reset kept the cancel check")
	}

	e.setCancelCheck(func() bool { return true })
	release(e)
	if e.checkFn != nil {
		t.Fatal("release kept the cancel check")
	}
}

// TestCancelCheckDeterministicPrefix: with a probe installed that never
// fires, the event sequence is identical to a probe-free run.
func TestCancelCheckDeterministicPrefix(t *testing.T) {
	run := func(probe bool) (left int, now float64) {
		var e Engine
		h := &countdownHandler{e: &e, left: 3 * InterruptEvery}
		e.setHandler(h)
		e.Schedule(0, Ev{Kind: 1})
		if probe {
			e.setCancelCheck(func() bool { return false })
		}
		e.runFeed(nil, 0)
		return h.left, e.Now()
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
// that trips on its second poll stops the feed after exactly
// 2*InterruptEvery arrivals.
func TestCancelCheckCountsFeedArrivals(t *testing.T) {
	var e Engine
	var h nopHandler
	e.setHandler(&h)
	polls := 0
	e.setCancelCheck(func() bool {
		polls++
		return polls == 2
	})
	e.runFeed(make([]Job, 3*InterruptEvery), 1)
	if want := 2 * InterruptEvery; !e.interrupted || polls != 2 || h.n != want {
		t.Fatalf("interrupted %v after %d polls, %d handled; want true, 2, %d",
			e.interrupted, polls, h.n, want)
	}
}

// TestRunReleasesEngine pins Run's scoped contract: however a run ends —
// empty, drained, interrupted, or by a panicking handler — it takes
// exactly one engine from the pool and returns it without the run's
// probe or handler.
func TestRunReleasesEngine(t *testing.T) {
	stop := func() bool { return true }
	for _, c := range []struct {
		name        string
		jobs        []Job
		panicAt     int // the handler panics at this event; -1 never
		interrupted bool
	}{
		{"empty", nil, -1, false},
		{"drained", unitJobs(10), -1, false},
		{"interrupted", unitJobs(2 * InterruptEvery), -1, true},
		{"handler panic", unitJobs(10), 5, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var eng *Engine
			var interrupted bool
			before, _ := PoolStats()
			func() {
				defer func() {
					if r := recover(); (r != nil) != (c.panicAt >= 0) {
						t.Fatalf("recovered %v, want a panic: %v", r, c.panicAt >= 0)
					}
				}()
				n := 0
				interrupted = Run(c.jobs, 1, Options{Interrupt: stop, OrderCheck: true}, func(e *Engine) Handler {
					eng = e
					return handlerFunc(func(float64, Ev) {
						if n == c.panicAt {
							panic("handler panic under test")
						}
						n++
					})
				})
			}()
			after, _ := PoolStats()
			if eng == nil || after-before != 1 {
				t.Fatalf("build saw engine %p; %d engines acquired, want one", eng, after-before)
			}
			if eng.handler != nil || eng.checkFn != nil {
				t.Fatal("the engine went back to the pool holding the run's handler or probe")
			}
			if interrupted != c.interrupted {
				t.Fatalf("Run reported interrupted=%v, want %v", interrupted, c.interrupted)
			}
		})
	}
}

// unitJobs is a feed of n unit-size jobs, all arriving at 0.
func unitJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i].Size = 1
	}
	return jobs
}

// TestRunRefusesUnsortedFeed checks the one feed check every model relies
// on: an unsorted feed, a negative first arrival, a non-finite arrival or
// a size that is not finite and > 0 panics naming the job before an
// engine is taken.
func TestRunRefusesUnsortedFeed(t *testing.T) {
	for _, c := range []struct {
		bad  int // the index the panic must name
		jobs []Job
	}{
		{1, []Job{{Arrival: 2, Size: 1}, {Arrival: 1, Size: 1}}},
		{0, []Job{{Arrival: -1, Size: 1}, {Arrival: 1, Size: 1}}},
		{0, []Job{{Arrival: math.NaN(), Size: 1}, {Arrival: 1, Size: 1}}},
		{1, []Job{{Arrival: 0, Size: 1}, {Arrival: math.Inf(1), Size: 1}}},
		{1, []Job{{Arrival: 0, Size: 1}, {Arrival: 1, Size: 0}}},
		{0, []Job{{Arrival: 0, Size: math.NaN()}, {Arrival: 1, Size: 1}}},
	} {
		jobs, bad := c.jobs, c.bad
		before, _ := PoolStats()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("sim: job %d ", bad); !strings.HasPrefix(msg, want) {
					t.Fatalf("feed %v: panic %q, want the feed check's panic naming job %d", jobs, msg, bad)
				}
			}()
			Run(jobs, 1, Options{}, func(*Engine) Handler { return &nopHandler{} })
		}()
		if after, _ := PoolStats(); after != before {
			t.Fatalf("feed %v: an unsorted feed took %d engines", jobs, after-before)
		}
	}
}
