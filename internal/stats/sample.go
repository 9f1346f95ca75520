package stats

import (
	"math"
	"sort"
)

// Sample collects raw observations for exact quantile computation. Use it
// when the number of observations is modest (per-experiment summaries); for
// million-job runs prefer Stream plus a Histogram.
//
// The zero value is an empty sample.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a sample pre-sized for n observations.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics (type-7, the R default). Returns NaN on an empty
// sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// ClassTally keeps one Stream per integer class. It is used for per-host and
// per-size-class slowdown statistics (the fairness analyses).
type ClassTally struct {
	streams map[int]*Stream
	// small caches the streams of labels 0..len(small)-1, the range every
	// size classifier in the module uses (a SITA design's host index, a
	// decile), so the simulator's per-record add skips the map lookup.
	small [16]*Stream
}

// NewClassTally returns an empty tally.
func NewClassTally() *ClassTally {
	return &ClassTally{streams: make(map[int]*Stream)}
}

// Add records observation x under class c.
func (t *ClassTally) Add(c int, x float64) { t.Stream(c).Add(x) }

// Stream returns class c's stream, creating it on first use; call it only
// just before an observation, so Classes lists observed classes alone.
func (t *ClassTally) Stream(c int) *Stream {
	if uint(c) < uint(len(t.small)) {
		if s := t.small[c]; s != nil {
			return s
		}
	}
	return t.create(c)
}

// create is Stream's first-use and out-of-range path.
func (t *ClassTally) create(c int) *Stream {
	s, ok := t.streams[c]
	if !ok {
		//lint:allow allocfree runs on a class's first observation only, once per class per run
		s = &Stream{}
		t.streams[c] = s //lint:allow allocfree files the stream made on the class's first observation
	}
	if uint(c) < uint(len(t.small)) {
		t.small[c] = s
	}
	return s
}

// Class returns the stream for class c, or nil if the class has no
// observations.
func (t *ClassTally) Class(c int) *Stream { return t.streams[c] }

// Classes returns the observed class labels in ascending order.
func (t *ClassTally) Classes() []int {
	cs := make([]int, 0, len(t.streams))
	for c := range t.streams {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	return cs
}

// MaxSpread reports the largest ratio between any two class means; 1 means
// perfectly equal means (the fairness ideal). Classes with no observations
// are ignored. Returns 1 when fewer than two classes have data or when a
// class mean is zero.
func (t *ClassTally) MaxSpread() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	count := 0
	for _, s := range t.streams {
		if s.Count() == 0 {
			continue
		}
		m := s.Mean()
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
		count++
	}
	if count < 2 || lo <= 0 {
		return 1
	}
	return hi / lo
}

// Autocorrelation computes the lag-k sample autocorrelation of a series —
// used to verify that generated traces carry (or don't carry) the
// "many jobs with similar runtimes arrive together" correlation of real
// supercomputing logs. Returns 0 for k >= len(xs) or a constant series.
func Autocorrelation(xs []float64, k int) float64 {
	n := len(xs)
	if k < 0 || k >= n {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+k < n {
			num += d * (xs[i+k] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
