package sim

import (
	"strings"
	"testing"
)

// firing is one dispatched event as a model saw it.
type firing struct {
	at   float64
	kind uint8
	host int32
	id   int
}

// feedModel is a small deterministic model for holding the feed to eager
// scheduling. Arrival i (kind 1) schedules a chain of follow-up events
// (kind 2) at small integer delays, as departures would, and a pattern
// byte of 4 mod 5 cancels the latest follow-up first, so the heap's top is
// sometimes a canceled entry and many events tie at equal instants.
type feedModel struct {
	e       *Engine
	pattern []byte
	last    Handle
	log     []firing
}

func (m *feedModel) HandleEvent(now float64, ev Ev) {
	m.log = append(m.log, firing{now, ev.Kind, ev.Host, ev.Job.ID})
	switch ev.Kind {
	case 1:
		d := m.pattern[ev.Job.ID%len(m.pattern)]
		if d%5 == 4 {
			m.last.Cancel()
		}
		m.last = m.e.ScheduleAfter(float64(d%3), Ev{Kind: 2, Host: int32(d / 3 % 3), Job: ev.Job})
	case 2:
		if ev.Host > 0 {
			m.e.ScheduleAfter(float64(ev.Host%2), Ev{Kind: 2, Host: ev.Host - 1, Job: ev.Job})
		}
	}
}

// runFeedModel runs jobs through feedModel with the order check armed,
// either fed (runFeed) or scheduled eagerly up front (the oracle), and
// reports what fired.
func runFeedModel(jobs []Job, pattern []byte, feed bool) []firing {
	var e Engine
	m := &feedModel{e: &e, pattern: pattern}
	e.setHandler(m)
	e.setOrderCheck(true)
	if feed {
		e.runFeed(jobs, 1)
	} else {
		for _, j := range jobs {
			e.Schedule(j.Arrival, Ev{Kind: 1, Job: j})
		}
		e.runFeed(nil, 0)
	}
	return m.log
}

// feedJobs decodes sorted, tie-heavy arrival times: each gap is 0, 1 or 2.
func feedJobs(gaps []byte) []Job {
	jobs := make([]Job, len(gaps))
	at := 0.0
	for i, g := range gaps {
		at += float64(g % 3)
		jobs[i] = Job{ID: i, Arrival: at}
	}
	return jobs
}

func checkFeedMatchesEager(t *testing.T, gaps, pattern []byte) {
	t.Helper()
	jobs := feedJobs(gaps)
	eager := runFeedModel(jobs, pattern, false)
	fed := runFeedModel(jobs, pattern, true)
	if len(eager) != len(fed) {
		t.Fatalf("eager fired %d events, feed fired %d", len(eager), len(fed))
	}
	for i := range eager {
		if eager[i] != fed[i] {
			t.Fatalf("event %d: eager %+v, feed %+v", i, eager[i], fed[i])
		}
	}
}

// TestEngineFeedMatchesEagerOrder checks the feed's determinism contract:
// firing arrivals from the slice, with runtime events scheduled at the
// arrivals' own instants, gives exactly the order of scheduling every
// arrival eagerly and then calling runFeed(nil, 0).
func TestEngineFeedMatchesEagerOrder(t *testing.T) {
	checkFeedMatchesEager(t, []byte{1, 0, 1, 0, 0, 1, 0, 2, 0}, []byte{0, 3, 6, 1, 4, 7, 2, 5, 8, 9})
	checkFeedMatchesEager(t, []byte{0, 0, 0, 0}, []byte{0})
	checkFeedMatchesEager(t, nil, []byte{0})
}

// TestEngineFeedOrderCheck checks that fed arrivals go through the
// dispatch-order assertion: an unsorted feed panics once it is armed.
func TestEngineFeedOrderCheck(t *testing.T) {
	var e Engine
	e.setHandler(&nopHandler{})
	e.setOrderCheck(true)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "dispatch order violated") {
			t.Fatalf("unsorted feed: panic %q, want a dispatch-order violation", msg)
		}
	}()
	e.runFeed([]Job{{Arrival: 2}, {Arrival: 1}}, 1)
}

// TestEngineFeedDeliversArrivals checks that the handler sees every fed
// arrival as an event, next to the runtime events it schedules, and
// still skips canceled ones.
func TestEngineFeedDeliversArrivals(t *testing.T) {
	var e Engine
	arrivals, departures := 0, 0
	e.setHandler(handlerFunc(func(now float64, ev Ev) {
		if ev.Kind == 2 {
			departures++
			return
		}
		arrivals++
		e.ScheduleAfter(1, Ev{Kind: 2})
		e.ScheduleAfter(2, Ev{Kind: 2}).Cancel()
	}))
	jobs := feedJobs([]byte{0, 1, 1, 0, 2})
	e.runFeed(jobs, 1)
	if arrivals != len(jobs) || departures != len(jobs) {
		t.Fatalf("handled %d arrivals and %d departures, want %d of each",
			arrivals, departures, len(jobs))
	}
}

// FuzzFeedOrder holds runFeed to its oracle, eager Schedule of every
// arrival followed by runFeed(nil, 0), on tie-heavy sorted arrivals and handler
// events at small integer delays, some of them canceled.
func FuzzFeedOrder(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 1, 0, 2, 0}, []byte{0, 3, 6, 1, 4, 7, 2, 5, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{4, 8, 2})
	f.Add([]byte{2, 2, 1, 0, 0, 2}, []byte{7})
	f.Fuzz(func(t *testing.T, gaps, pattern []byte) {
		if len(pattern) == 0 || len(gaps) > 512 {
			return
		}
		checkFeedMatchesEager(t, gaps, pattern)
	})
}
