package dist

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// edgePoints are the interval ends every Interval comparison includes for
// b: below K, the cutoff searches' outer low edge K-1 (0 when K <= 1), K
// and its neighbours, points inside the support, P and its neighbours,
// and points above P.
func edgePoints(b BoundedPareto) []float64 {
	return []float64{
		0, b.K / 2, math.Max(b.K-1, 0), b.K - 1, math.Nextafter(b.K, 0), b.K, math.Nextafter(b.K, math.Inf(1)),
		math.Sqrt(b.K * b.P), b.K + (b.P-b.K)/3,
		math.Nextafter(b.P, 0), b.P, math.Nextafter(b.P, math.Inf(1)), 2 * b.P, math.Inf(1),
	}
}

// checkInterval compares Interval with Prob and PartialMoment bit for bit
// on every ordered pair of xs, so reversed and equal pairs are included.
func checkInterval(t *testing.T, d Distribution, xs []float64) {
	t.Helper()
	edges := make([]Edge, len(xs))
	for i, x := range xs {
		edges[i] = NewEdge(d, x)
	}
	for i, lo := range xs {
		for k, hi := range xs {
			var got [4]float64
			got[0], got[1], got[2], got[3] = Interval(d, edges[i], edges[k])
			want := [4]float64{Prob(d, lo, hi), PartialMoment(d, 1, lo, hi), PartialMoment(d, 2, lo, hi), PartialMoment(d, -1, lo, hi)}
			for n, name := range []string{"Prob", "PartialMoment(1)", "PartialMoment(2)", "PartialMoment(-1)"} {
				if math.Float64bits(got[n]) != math.Float64bits(want[n]) {
					t.Fatalf("%+v: (%v, %v]: Interval's %s = %v (%#x), want %v (%#x)",
						d, lo, hi, name, got[n], math.Float64bits(got[n]), want[n], math.Float64bits(want[n]))
				}
			}
		}
	}
}

// TestIntervalMatchesPartialMoment covers the three profiles' tail
// indices and α = 0.5, 1 and 2, where j == α takes the logarithm branch
// for j = 1 and 2, plus random points inside each support.
func TestIntervalMatchesPartialMoment(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, b := range quantileCases {
		xs := edgePoints(b)
		for i := 0; i < 8; i++ {
			xs = append(xs, b.Quantile(rng.Float64()))
		}
		checkInterval(t, b, xs)
	}
	// Any other distribution keeps only x and falls back to Prob and
	// PartialMoment.
	checkInterval(t, NewEmpirical([]float64{1, 2, 2, 5, 9}), []float64{0, 1, 1.5, 2, 5, 9, 10})
}

// FuzzIntervalMatchesPartialMoment decodes α, K, P and two interval ends
// from the input and compares Interval with Prob and PartialMoment bit for
// bit on every pair of the decoded ends and edgePoints.
func FuzzIntervalMatchesPartialMoment(f *testing.F) {
	for _, b := range quantileCases {
		seed := make([]byte, 0, 40)
		for _, v := range []float64{b.Alpha, b.K, b.P, b.K * 2, b.P / 2} {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 40 {
			return
		}
		var v [5]float64
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		alpha, k, p := v[0], v[1], v[2]
		if !(alpha > 0 && k > 0 && p > k) || math.IsInf(alpha, 0) || math.IsInf(p, 0) {
			return
		}
		b := NewBoundedPareto(alpha, k, p)
		xs := edgePoints(b)
		for _, x := range v[3:] {
			if !math.IsNaN(x) { // sizes and cutoffs are never NaN
				xs = append(xs, x)
			}
		}
		checkInterval(t, b, xs)
	})
}
