package stats

import (
	"fmt"
	"math"
	"strings"
)

// LogHistogram buckets positive observations into logarithmically spaced
// bins. Job sizes and slowdowns span many orders of magnitude, so log bins
// give usable resolution everywhere with O(1) memory. Values at or below
// zero land in an underflow bucket.
type LogHistogram struct {
	base      float64 // bin width in log space; each bin covers [base^i, base^(i+1))
	logBase   float64
	counts    map[int]int64
	underflow int64
}

// NewLogHistogram returns a histogram whose bins grow geometrically by
// factor base (base > 1, e.g. 2 for doubling bins, 10^0.1 for 10 bins per
// decade). Panics if base <= 1.
func NewLogHistogram(base float64) *LogHistogram {
	if base <= 1 {
		panic(fmt.Sprintf("stats: log histogram base must exceed 1, got %v", base))
	}
	return &LogHistogram{
		base:    base,
		logBase: math.Log(base),
		counts:  make(map[int]int64),
	}
}

// Add records one observation.
func (h *LogHistogram) Add(x float64) {
	if x <= 0 {
		h.underflow++
		return
	}
	bin := int(math.Floor(math.Log(x) / h.logBase))
	h.counts[bin]++
}

// Underflow reports the number of non-positive observations.
func (h *LogHistogram) Underflow() int64 { return h.underflow }

// Bin describes one occupied histogram bin.
type Bin struct {
	Lo, Hi float64 // half-open interval [Lo, Hi)
	Count  int64
}

// Bins returns the occupied bins in ascending order.
func (h *LogHistogram) Bins() []Bin {
	if len(h.counts) == 0 {
		return nil
	}
	lo, hi := math.MaxInt32, math.MinInt32
	for b := range h.counts {
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	var bins []Bin
	for b := lo; b <= hi; b++ {
		c := h.counts[b]
		if c == 0 {
			continue
		}
		bins = append(bins, Bin{
			Lo:    math.Pow(h.base, float64(b)),
			Hi:    math.Pow(h.base, float64(b+1)),
			Count: c,
		})
	}
	return bins
}

// String renders a compact ASCII sketch of the histogram, useful in CLI
// output and test failure messages.
func (h *LogHistogram) String() string {
	bins := h.Bins()
	if len(bins) == 0 {
		return "(empty histogram)"
	}
	var maxCount int64
	for _, b := range bins {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range bins {
		width := int(40 * float64(b.Count) / float64(maxCount))
		fmt.Fprintf(&sb, "[%10.3g, %10.3g) %8d %s\n",
			b.Lo, b.Hi, b.Count, strings.Repeat("#", width))
	}
	return sb.String()
}

// DecileTally partitions observations by a size attribute into deciles
// defined by fixed boundaries, keeping one Stream of a metric per decile.
// It powers the fairness audit: expected slowdown per job-size decile.
type DecileTally struct {
	bounds []float64 // len 9: boundaries between deciles
	tally  *ClassTally
}

// NewDecileTally builds a tally from decile boundaries (ascending, length 9
// for true deciles, but any number of boundaries defines len+1 classes).
// Panics if the boundaries are not ascending.
func NewDecileTally(bounds []float64) *DecileTally {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			panic("stats: decile boundaries must be ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &DecileTally{bounds: b, tally: NewClassTally()}
}

// Add records metric value v for an item whose size attribute is size.
func (d *DecileTally) Add(size, v float64) {
	d.tally.Add(d.classOf(size), v)
}

func (d *DecileTally) classOf(size float64) int {
	// Linear scan: the boundary list is tiny (typically 9 entries).
	for i, b := range d.bounds {
		if size <= b {
			return i
		}
	}
	return len(d.bounds)
}

// Classes returns the number of classes (len(bounds)+1).
func (d *DecileTally) Classes() int { return len(d.bounds) + 1 }

// Mean reports the mean of the metric in class c (0 if no data).
func (d *DecileTally) Mean(c int) float64 {
	s := d.tally.Class(c)
	if s == nil {
		return 0
	}
	return s.Mean()
}

// Count reports the number of observations in class c.
func (d *DecileTally) Count(c int) int64 {
	s := d.tally.Class(c)
	if s == nil {
		return 0
	}
	return s.Count()
}

// Spread reports the max/min ratio across nonempty class means (1 = fair).
func (d *DecileTally) Spread() float64 { return d.tally.MaxSpread() }
