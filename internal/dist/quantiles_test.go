package dist

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// edgeUs are the draws every Quantiles comparison includes: the ends of
// (0, 1), values outside it, NaN, subnormals and the neighbours of 1.
var edgeUs = []float64{
	0, math.Copysign(0, -1), 1, math.NaN(), -0.5, -1e-300, 2, math.Inf(1), math.Inf(-1),
	5e-324, 0x1p-1030, 0x1p-1022, 1e-20, 1 - 0x1p-53, 1 - 0x1p-52, 1 + 0x1p-52, 0.5,
}

// checkQuantiles compares Quantiles with Quantile bit for bit on us.
func checkQuantiles(t *testing.T, b BoundedPareto, us []float64) {
	t.Helper()
	got := append([]float64(nil), us...)
	b.Quantiles(got)
	for i, u := range us {
		want := b.Quantile(u)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%+v: Quantiles at u=%v (%#x) gave %v (%#x), Quantile %v (%#x)",
				b, u, math.Float64bits(u), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// quantileCases are the fitted tail indices of the three built-in
// profiles (C90, J90, CTC; CTC's y = -7.27 runs seven squaring steps),
// then exponents with yf = 0 (α = 1/4, 1/3, 1), with yi = 0 and the
// yf > 0.5 fold (α = 1.5), and math.Pow's 1/Sqrt case (α = 2).
var quantileCases = []BoundedPareto{
	NewBoundedPareto(0.643, 60, 2.2e6),
	NewBoundedPareto(0.604, 30, 1.2e6),
	NewBoundedPareto(0.1376, 30, 43200),
	NewBoundedPareto(0.25, 1, 1e4),
	NewBoundedPareto(1.0/3, 1, 1e4),
	NewBoundedPareto(0.5, 1, 1e4),
	NewBoundedPareto(1, 1, 1e4),
	NewBoundedPareto(1.5, 1, 1e4),
	NewBoundedPareto(2, 1, 1e4),
}

func TestQuantilesMatchQuantile(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	extra := []BoundedPareto{
		NewBoundedPareto(0.01, 1, 1.0001),        // yi = 100
		NewBoundedPareto(1.0/1500, 1e-10, 1e300), // x^1500 is subnormal near u = 1: only the renormalized x1 keeps a1 normal
		NewBoundedPareto(1e-18, 1, 2),            // 60 squaring steps: every draw goes through Quantile
		{Alpha: 0.7, K: 2, P: 9},                 // a literal: norm is 0, so x = 1
	}
	for _, b := range append(quantileCases, extra...) {
		// 1000 is not a multiple of the block size, so the last block
		// is partial.
		us := make([]float64, 1000)
		for i := range us {
			us[i] = rng.Float64()
		}
		checkQuantiles(t, b, append(us, edgeUs...))
		checkQuantiles(t, b, nil)
	}
}

// FuzzQuantilesMatchQuantile decodes α, K and P, then draws, from the
// input and compares Quantiles with Quantile bit for bit; every run
// includes the edge draws as well.
func FuzzQuantilesMatchQuantile(f *testing.F) {
	for _, b := range quantileCases {
		seed := make([]byte, 0, 24+8*4)
		for _, v := range []float64{b.Alpha, b.K, b.P, 1e-9, 0.25, 0.999, 0.5} {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 24 {
			return
		}
		alpha := math.Float64frombits(binary.LittleEndian.Uint64(raw))
		k := math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))
		p := math.Float64frombits(binary.LittleEndian.Uint64(raw[16:]))
		if !(alpha > 0 && k > 0 && p > k) {
			return
		}
		us := append([]float64(nil), edgeUs...)
		for raw = raw[24:]; len(raw) >= 8; raw = raw[8:] {
			v := binary.LittleEndian.Uint64(raw)
			if v&1 == 0 {
				// Even words are uniform draws on the 2^-53 grid.
				us = append(us, float64(v>>11)*0x1p-53)
			} else {
				us = append(us, math.Float64frombits(v))
			}
		}
		checkQuantiles(t, NewBoundedPareto(alpha, k, p), us)
	})
}

// BenchmarkQuantiles times one C90-shaped draw through the block kernel
// (per-draw) and through scalar Quantile (per-draw/scalar).
func BenchmarkQuantiles(b *testing.B) {
	d := quantileCases[0]
	rng := rand.New(rand.NewPCG(1, 2))
	src := make([]float64, 4096)
	for i := range src {
		src[i] = rng.Float64()
	}
	us := make([]float64, len(src))
	b.Run("per-draw", func(b *testing.B) {
		for i := 0; i < b.N; i += len(us) {
			copy(us, src)
			d.Quantiles(us)
		}
	})
	b.Run("per-draw/scalar", func(b *testing.B) {
		for i := 0; i < b.N; i += len(us) {
			for j, u := range src {
				us[j] = d.Quantile(u)
			}
		}
	})
}
