package stats

import (
	"math"
	"math/rand/v2"
	"testing"

	"sita/internal/floatcmp"
)

func TestSampleQuantileKnown(t *testing.T) {
	s := NewSample(5)
	for _, x := range []float64{10, 20, 30, 40, 50} {
		s.Add(x)
	}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.125, 15},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !floatcmp.AlmostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleQuantileEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("quantile of empty sample should be NaN")
	}
}

func TestSampleQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	s := NewSample(1000)
	for i := 0; i < 1000; i++ {
		s.Add(rng.Float64() * 100)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestClassTally(t *testing.T) {
	ct := NewClassTally()
	ct.Add(0, 1)
	ct.Add(0, 3)
	ct.Add(1, 10)
	if got := ct.Class(0).Mean(); got != 2 {
		t.Errorf("class 0 mean = %v, want 2", got)
	}
	if got := ct.Class(1).Mean(); got != 10 {
		t.Errorf("class 1 mean = %v, want 10", got)
	}
	if ct.Class(7) != nil {
		t.Error("missing class should be nil")
	}
	if cs := ct.Classes(); len(cs) != 2 || cs[0] != 0 || cs[1] != 1 {
		t.Errorf("classes = %v, want [0 1]", cs)
	}
	if got := ct.MaxSpread(); got != 5 {
		t.Errorf("max spread = %v, want 5", got)
	}
}

func TestClassTallySpreadDegenerate(t *testing.T) {
	ct := NewClassTally()
	if got := ct.MaxSpread(); got != 1 {
		t.Errorf("empty tally spread = %v, want 1", got)
	}
	ct.Add(0, 5)
	if got := ct.MaxSpread(); got != 1 {
		t.Errorf("single-class spread = %v, want 1", got)
	}
}

func TestLogHistogramBasic(t *testing.T) {
	h := NewLogHistogram(2)
	for _, x := range []float64{1, 1.5, 3, 100, -1, 0} {
		h.Add(x)
	}
	if h.Underflow() != 2 {
		t.Errorf("underflow = %d, want 2", h.Underflow())
	}
	bins := h.Bins()
	var total int64
	for _, b := range bins {
		if b.Lo >= b.Hi {
			t.Errorf("bin [%v,%v) malformed", b.Lo, b.Hi)
		}
		total += b.Count
	}
	if total != 4 {
		t.Errorf("binned count = %d, want 4", total)
	}
}

func TestLogHistogramPanicsOnBadBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for base <= 1")
		}
	}()
	NewLogHistogram(1.0)
}

func TestDecileTally(t *testing.T) {
	d := NewDecileTally([]float64{10, 100})
	d.Add(5, 1.0)    // class 0
	d.Add(50, 2.0)   // class 1
	d.Add(5000, 4.0) // class 2
	d.Add(10, 3.0)   // boundary goes to lower class
	if d.Classes() != 3 {
		t.Fatalf("classes = %d, want 3", d.Classes())
	}
	if got := d.Mean(0); got != 2 {
		t.Errorf("class 0 mean = %v, want 2", got)
	}
	if got := d.Count(1); got != 1 {
		t.Errorf("class 1 count = %v, want 1", got)
	}
	if got := d.Mean(2); got != 4 {
		t.Errorf("class 2 mean = %v, want 4", got)
	}
	if got := d.Spread(); got != 2 {
		t.Errorf("spread = %v, want 2", got)
	}
	if got := d.Mean(9); got != 0 {
		t.Errorf("empty class mean = %v, want 0", got)
	}
}

func TestDecileTallyPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for descending bounds")
		}
	}()
	NewDecileTally([]float64{10, 5})
}

func TestAutocorrelation(t *testing.T) {
	// A constant series has zero (defined) autocorrelation.
	if got := Autocorrelation([]float64{3, 3, 3}, 1); got != 0 {
		t.Errorf("constant series acf = %v, want 0", got)
	}
	// Lag 0 of any non-constant series is 1.
	xs := []float64{1, 5, 2, 8, 3, 9, 1, 7}
	if got := Autocorrelation(xs, 0); !floatcmp.AlmostEqual(got, 1, 1e-12) {
		t.Errorf("lag-0 acf = %v, want 1", got)
	}
	// Alternating series has strongly negative lag-1 autocorrelation.
	alt := []float64{1, -1, 1, -1, 1, -1, 1, -1, 1, -1}
	if got := Autocorrelation(alt, 1); got > -0.5 {
		t.Errorf("alternating lag-1 acf = %v, want strongly negative", got)
	}
	// Smooth run has positive lag-1 autocorrelation.
	var run []float64
	for i := 0; i < 50; i++ {
		run = append(run, float64(i%10))
	}
	if got := Autocorrelation(run, 1); got < 0.3 {
		t.Errorf("runs lag-1 acf = %v, want positive", got)
	}
	// Out-of-range lags are 0.
	if Autocorrelation(xs, len(xs)) != 0 || Autocorrelation(xs, -1) != 0 {
		t.Error("out-of-range lag should be 0")
	}
}
