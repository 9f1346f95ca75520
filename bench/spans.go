package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Times are microseconds since the child process was started.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Cat    string         `json:"cat"`
	Name   string         `json:"name"`
	Start  float64        `json:"ts"`
	Dur    float64        `json:"dur"`
	Args   map[string]any `json:"args,omitempty"`
}

// tracer keeps a child's spans in memory until the child reports. A nil
// *tracer records nothing: untraced repetitions pay one nil check per span.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

// active is a span that has begun and not yet ended.
type active struct {
	t         *tracer
	id        int
	parent    int
	cat, name string
	start     time.Time
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// begin starts a span under parent (0 for a root span).
func (t *tracer) begin(parent int, cat, name string) active {
	if t == nil {
		return active{}
	}
	return active{t: t, id: t.newID(), parent: parent, cat: cat, name: name, start: now()}
}

// end records the span with optional arguments.
func (a active) end(args map[string]any) {
	if a.t != nil {
		a.t.add(a.id, a.parent, a.cat, a.name, a.start, now(), args)
	}
}

// record adds a finished leaf span whose interval the caller measured.
func (t *tracer) record(parent int, cat, name string, start, end time.Time, args map[string]any) {
	if t != nil {
		t.add(t.newID(), parent, cat, name, start, end, args)
	}
}

func (t *tracer) add(id, parent int, cat, name string, start, end time.Time, args map[string]any) {
	s := span{ID: id, Parent: parent, Cat: cat, Name: name,
		Start: us(start.Sub(t.base)), Dur: us(end.Sub(start)), Args: args}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) collected() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedProcess is one child's spans as the parent merges them.
type tracedProcess struct {
	label  string
	offset float64 // when the child started, µs after the run started
	spans  []span
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, one
// process per child. Request spans overlap one another, so they are laid
// out on as many thread lanes as the concurrency needs; every other span
// nests inside its parent on lane 1.
func writeChromeTrace(path string, procs []tracedProcess) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for i, p := range procs {
		pid := i + 1
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]any{"name": p.label}})
		spans := append([]span(nil), p.spans...)
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
		var laneEnd []float64 // end time of the last request span on each lane
		for _, s := range spans {
			tid := 1
			if s.Cat == "http" {
				lane := 0
				for lane < len(laneEnd) && laneEnd[lane] > s.Start {
					lane++
				}
				if lane == len(laneEnd) {
					laneEnd = append(laneEnd, 0)
				}
				laneEnd[lane] = s.Start + s.Dur
				tid = 2 + lane
			}
			events = append(events, event{Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: p.offset + s.Start, Dur: s.Dur, Pid: pid, Tid: tid, Args: s.Args})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfRow aggregates the spans sharing one category and name.
type selfRow struct {
	key         string
	count       int
	total, self float64 // µs
}

// selfTimes returns count, total and self time per span category/name.
// Self time is a span's duration minus the part of its interval that its
// child spans cover; overlapping children (concurrent requests) count once.
func selfTimes(spans []span) []selfRow {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		covered := covered(s, kids[s.ID])
		key := s.Cat + "/" + s.Name
		r := rows[key]
		if r == nil {
			r = &selfRow{key: key}
			rows[key] = r
		}
		r.count++
		r.total += s.Dur
		r.self += s.Dur - covered
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b selfRow) int {
		return cmp.Or(cmp.Compare(b.self, a.self), strings.Compare(a.key, b.key))
	})
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	lo, hi := parent.Start, parent.Start+parent.Dur
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.Start+k.Dur, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, end := 0.0, lo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total
}

// printSelfTimes prints the self-time table as comment lines.
func printSelfTimes(w io.Writer, label string, spans []span) {
	fmt.Fprintf(w, "# self time, %s: span count total_ms self_ms\n", label)
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "#   %-44s %6d %10.2f %10.2f\n", r.key, r.count, r.total/1e3, r.self/1e3)
	}
}
