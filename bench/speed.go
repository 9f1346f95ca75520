package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"slices"
	"time"
)

// The machine this benchmark was written on shares each core with other
// tenants. When they load it (most likely its other hardware thread), the
// same binary runs up to 1.9 times slower, in periods from a few seconds to
// minutes, and a whole run can fall into one. Within a run no statistic of
// wall time removes that. So every child also times a fixed reference task
// of its own, between its calls into the program, and reports each call's
// wall time scaled by refNominal over the reference's time at that moment:
// the time the call would take on a core running the reference task in
// refNominal. The reference uses only the standard library and the
// benchmark's own data, so no change to the program can move it.
//
// The reference is an event loop on container/heap and a JSON round trip:
// under contention the simulators slow like the heap loop, and the drivers
// and the HTTP path like JSON. Code that contention slows less, such as a
// chain of dependent arithmetic, would not track the program.
const (
	refNominal = time.Millisecond // about the reference task's time on an unshared core of a 2.1 GHz Xeon
	refEvery   = 100 * time.Millisecond
	refServers = 32
	refSpacing = 0.5 / (0.9 * refServers) // arrivals at load 0.9; sizes average 0.5
)

// refSizes are the reference event loop's service times: a fixed
// xorshift stream in [0, 1).
var refSizes = func() []float64 {
	x := uint64(88172645463325252)
	out := make([]float64, 6000)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = float64(x>>11) / (1 << 53)
	}
	return out
}()

// refHeap holds the times at which the reference loop's servers free up.
type refHeap []float64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refDoc is the reference JSON document, about the size of a simd answer.
type refDoc struct {
	Policy string             `json:"policy"`
	Hosts  int                `json:"hosts"`
	Load   float64            `json:"load"`
	Cuts   []float64          `json:"cuts"`
	Rows   []refRow           `json:"rows"`
	Tags   map[string]float64 `json:"tags"`
}

type refRow struct {
	Name     string  `json:"name"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	N        int     `json:"n"`
}

var refDocument = func() refDoc {
	d := refDoc{Policy: "reference", Hosts: 8, Load: 0.7, Tags: map[string]float64{}}
	for i := range 40 {
		d.Cuts = append(d.Cuts, 1000*refSizes[i])
		d.Rows = append(d.Rows, refRow{Name: "row" + string(rune('a'+i%26)), Mean: refSizes[100+i], Variance: refSizes[200+i], N: 37 * i})
		d.Tags[string(rune('A'+i%26))+string(rune('a'+i/26))] = refSizes[300+i]
	}
	return d
}()

// refSink keeps the reference task's results live.
var refSink float64

// referenceTask runs the reference once.
func referenceTask() {
	h := make(refHeap, refServers) // every server free at 0: already a heap
	var wait float64
	for i, s := range refSizes {
		free := h[0] // the server that frees up first takes the next job
		arrival := float64(i) * refSpacing
		start := max(free, arrival)
		wait += start - arrival
		h[0] = start + s
		heap.Fix(&h, 0)
	}
	var buf bytes.Buffer
	var back refDoc
	for range 4 {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(refDocument); err != nil {
			panic(err) // a fixed document of plain fields always encodes
		}
		back = refDoc{}
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			panic(err)
		}
	}
	refSink += wait + back.Load
}

// refSample is one timing of the reference task.
type refSample struct {
	at time.Time // the middle of the timing
	ms float64
}

// meter times the reference task every refEvery between the operations of
// a child and scales the operations' wall times by it.
type meter struct {
	samples []refSample
	last    time.Time
}

// sample times the reference task now.
func (m *meter) sample() {
	start := now()
	referenceTask()
	end := now()
	m.samples = append(m.samples, refSample{at: start.Add(end.Sub(start) / 2), ms: ms(end.Sub(start))})
	m.last = end
}

// tick times the reference task if refEvery has passed since the last time.
func (m *meter) tick() {
	if now().Sub(m.last) >= refEvery {
		m.sample()
	}
}

// calibrate warms the reference task and times it three times; it runs
// once, when set-up ends.
func (m *meter) calibrate() {
	referenceTask()
	for range 3 {
		m.sample()
	}
}

// refAt is the reference task's time at t, interpolated between the
// samples either side of it.
func (m *meter) refAt(t time.Time) float64 {
	i, _ := slices.BinarySearchFunc(m.samples, t, func(s refSample, t time.Time) int { return s.at.Compare(t) })
	switch {
	case i == 0:
		return m.samples[0].ms
	case i == len(m.samples):
		return m.samples[i-1].ms
	}
	a, b := m.samples[i-1], m.samples[i]
	f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.ms + f*(b.ms-a.ms)
}

// scaled is the wall interval [start, end) in milliseconds at the speed
// at which the reference task takes refNominal.
func (m *meter) scaled(start, end time.Time) float64 {
	return ms(end.Sub(start)) * ms(refNominal) / m.refAt(start.Add(end.Sub(start)/2))
}

// setupScale converts set-up wall time to reference speed with the median
// of the calibration samples, which follow set-up directly.
func (m *meter) setupScale() float64 {
	cal := make([]float64, 0, 3)
	for _, s := range m.samples[:min(3, len(m.samples))] {
		cal = append(cal, s.ms)
	}
	return ms(refNominal) / median(cal)
}

func (m *meter) refMS() []float64 {
	out := make([]float64, len(m.samples))
	for i, s := range m.samples {
		out[i] = s.ms
	}
	return out
}
