package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sita/internal/floatcmp"
)

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Count() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatalf("zero-value stream not empty: %v", s.String())
	}
	if s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty stream min/max should be 0")
	}
}

func TestStreamSingle(t *testing.T) {
	var s Stream
	s.Add(42)
	if s.Count() != 1 {
		t.Fatalf("count = %d, want 1", s.Count())
	}
	if s.Mean() != 42 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("single-value stats wrong: %s", s.String())
	}
	if s.Variance() != 0 {
		t.Fatalf("variance of single value = %v, want 0", s.Variance())
	}
}

func TestStreamKnownValues(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := s.PopVariance(); !floatcmp.AlmostEqual(got, 4, 1e-12) {
		t.Errorf("population variance = %v, want 4", got)
	}
	if got := s.Variance(); !floatcmp.AlmostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("sample variance = %v, want %v", got, 32.0/7.0)
	}
	if got := s.Sum(); got != 40 {
		t.Errorf("sum = %v, want 40", got)
	}
}

func TestStreamMergeMatchesSequential(t *testing.T) {
	f := func(seed uint64, split uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 50 + int(split)%100
		k := 1 + int(split)%n
		var whole, a, b Stream
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()*10 + 5
			whole.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return whole.Count() == a.Count() &&
			floatcmp.AlmostEqual(whole.Mean(), a.Mean(), 1e-9) &&
			floatcmp.AlmostEqual(whole.Variance(), a.Variance(), 1e-7) &&
			floatcmp.AlmostEqual(whole.Sum(), a.Sum(), 1e-9) &&
			whole.Min() == a.Min() && whole.Max() == a.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStreamMergeEmpty(t *testing.T) {
	var a, b Stream
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.Count() != 2 || a.Mean() != 2 {
		t.Fatalf("merge with empty changed stats: %s", a.String())
	}
	b.Merge(&a) // merging into empty copies
	if b.Count() != 2 || b.Mean() != 2 {
		t.Fatalf("merge into empty wrong: %s", b.String())
	}
}

func TestStreamSquaredCVExponential(t *testing.T) {
	// Exponential has C^2 = 1.
	rng := rand.New(rand.NewPCG(11, 13))
	var s Stream
	for i := 0; i < 200000; i++ {
		s.Add(rng.ExpFloat64() * 42)
	}
	if !floatcmp.AlmostEqual(s.SquaredCV(), 1, 0.03) {
		t.Errorf("exponential C^2 = %v, want ~1", s.SquaredCV())
	}
}

func TestStreamCI(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	var s Stream
	for i := 0; i < 10000; i++ {
		s.Add(rng.NormFloat64())
	}
	hw := s.CI(0.95)
	want := 1.96 * s.StdErr()
	if !floatcmp.AlmostEqual(hw, want, 1e-3) {
		t.Errorf("CI half-width = %v, want %v", hw, want)
	}
}

func TestZQuantile(t *testing.T) {
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.995, 2.575829},
		{0.84134, 0.99998}, // ~Phi(1)
	}
	for _, c := range cases {
		if got := zQuantile(c.p); !floatcmp.AlmostEqual(got, c.z, 1e-3) && math.Abs(got-c.z) > 1e-3 {
			t.Errorf("zQuantile(%v) = %v, want %v", c.p, got, c.z)
		}
	}
	if !math.IsNaN(zQuantile(0)) || !math.IsNaN(zQuantile(1)) {
		t.Error("ZQuantile at 0/1 should be NaN")
	}
}

func TestZQuantileSymmetry(t *testing.T) {
	f := func(raw float64) bool {
		p := 0.5 + math.Mod(math.Abs(raw), 0.499)
		return floatcmp.AlmostEqual(zQuantile(p), -zQuantile(1-p), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamMinMaxTracking(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		var s Stream
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if s.Count() == 0 {
			return true
		}
		return s.Min() == lo && s.Max() == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
