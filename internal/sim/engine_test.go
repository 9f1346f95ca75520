package sim

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	var e Engine
	var fired []float64
	e.setHandler(handlerFunc(func(now float64, ev Ev) { fired = append(fired, now) }))
	times := []float64{5, 1, 3, 2, 4}
	for _, at := range times {
		e.Schedule(at, Ev{})
	}
	e.runFeed(nil, 0)
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
}

func TestEngineFIFOForSimultaneousEvents(t *testing.T) {
	var e Engine
	var order []int
	e.setHandler(handlerFunc(func(now float64, ev Ev) { order = append(order, int(ev.Host)) }))
	for i := 0; i < 10; i++ {
		e.Schedule(1.0, Ev{Host: int32(i)})
	}
	e.runFeed(nil, 0)
	if len(order) != 10 {
		t.Fatalf("fired %d simultaneous events, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	var e Engine
	var log []float64
	e.setHandler(handlerFunc(func(now float64, ev Ev) {
		log = append(log, now)
		if ev.Kind == 1 {
			e.ScheduleAfter(2, Ev{Kind: 2})
		}
	}))
	e.ScheduleAfter(1, Ev{Kind: 1})
	e.runFeed(nil, 0)
	if len(log) != 2 || log[0] != 1 || log[1] != 3 {
		t.Fatalf("nested scheduling log = %v, want [1 3]", log)
	}
}

func TestEngineCancel(t *testing.T) {
	var e Engine
	fired := false
	e.setHandler(handlerFunc(func(float64, Ev) { fired = true }))
	h := e.Schedule(1, Ev{})
	h.Cancel()
	h.Cancel() // double-cancel is fine
	e.runFeed(nil, 0)
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("fired count = %d, want 0", e.Fired())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	var e Engine
	e.setHandler(&nopHandler{})
	e.Schedule(5, Ev{})
	e.runFeed(nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(1, Ev{})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	e.ScheduleAfter(-1, Ev{})
}

func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var e Engine
		var fired []float64
		e.setHandler(handlerFunc(func(now float64, ev Ev) { fired = append(fired, now) }))
		for _, r := range raw {
			at := r
			if at < 0 {
				at = -at
			}
			if at != at { // NaN
				continue
			}
			e.Schedule(at, Ev{})
		}
		e.runFeed(nil, 0)
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRNGDeterminismAndStreams(t *testing.T) {
	a := NewRNG(1, 0)
	b := NewRNG(1, 0)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed, stream) should be identical")
		}
	}
	c := NewRNG(1, 1)
	d := NewRNG(1, 0)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Float64() == d.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 0 and 1 nearly identical (%d collisions)", same)
	}
}

func TestNewRNGStreamsUncorrelated(t *testing.T) {
	// Crude correlation check across adjacent seeds.
	var xs, ys []float64
	for seed := uint64(0); seed < 500; seed++ {
		xs = append(xs, NewRNG(seed, 0).Float64())
		ys = append(ys, NewRNG(seed+1, 0).Float64())
	}
	// Pearson correlation should be near zero.
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
		syy += (ys[i] - my) * (ys[i] - my)
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r > 0.2 || r < -0.2 {
		t.Fatalf("adjacent-seed correlation = %v", r)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	var h nopHandler
	for i := 0; i < b.N; i++ {
		var e Engine
		e.setHandler(&h)
		for j := 0; j < 1000; j++ {
			e.Schedule(rng.Float64()*1000, Ev{})
		}
		e.runFeed(nil, 0)
	}
}

func TestEngineRandomCancelStress(t *testing.T) {
	// Random interleavings of scheduling and canceling must never fire a
	// canceled event, never fire out of order, and always drain.
	rng := rand.New(rand.NewPCG(99, 100))
	for trial := 0; trial < 50; trial++ {
		var e Engine
		type tracked struct {
			h        Handle
			at       float64
			canceled bool
		}
		var items []*tracked
		fired := map[*tracked]bool{}
		lastTime := -1.0
		e.setHandler(handlerFunc(func(now float64, ev Ev) {
			it := items[ev.Job.ID]
			if now < lastTime {
				t.Fatalf("trial %d: time went backwards", trial)
			}
			lastTime = now
			if it.canceled {
				t.Fatalf("trial %d: canceled event fired", trial)
			}
			fired[it] = true
		}))
		for i := 0; i < 200; i++ {
			it := &tracked{at: rng.Float64() * 100}
			it.h = e.Schedule(it.at, Ev{Job: Job{ID: i}})
			items = append(items, it)
			// Randomly cancel an earlier event.
			if rng.Float64() < 0.3 {
				victim := items[rng.IntN(len(items))]
				if !fired[victim] {
					victim.h.Cancel()
					victim.canceled = true
				}
			}
		}
		e.runFeed(nil, 0)
		live := 0
		for _, it := range items {
			if !it.canceled {
				live++
				if !fired[it] {
					t.Fatalf("trial %d: live event never fired", trial)
				}
			}
		}
		if e.Fired() != uint64(live) {
			t.Fatalf("trial %d: fired %d events, want the %d live ones", trial, e.Fired(), live)
		}
	}
}

func TestEngineFiredCounter(t *testing.T) {
	var e Engine
	e.setHandler(&nopHandler{})
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), Ev{})
	}
	h := e.Schedule(100, Ev{})
	h.Cancel()
	e.runFeed(nil, 0)
	if e.Fired() != 10 {
		t.Fatalf("fired = %d, want 10 (canceled events don't count)", e.Fired())
	}
}
