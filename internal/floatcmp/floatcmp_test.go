package floatcmp

import (
	"math"
	"testing"
)

func TestAlmostEqual(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{0, math.Copysign(0, -1), 0, true},
		{1e-3, 2e-3, 1e-2, true}, // absolute below 1
		{1e-3, 2e-3, 1e-4, false},
		{1e6, 1e6 + 1, 1e-6, true}, // relative above 1
		{1e6, 1e6 + 2, 1e-6, false},
		{-1e6, -1e6 - 1, 1e-6, true},
		{0.5, 0.75, 0.25, true}, // the bound itself is inside
		{inf, inf, 1e-9, true},
		{-inf, -inf, 0, true},
		{inf, -inf, 1e-9, false},
		{inf, 1e308, 1e-9, false},
		{1, inf, 10, false},
		{nan, nan, 1e-9, false},
		{nan, 1, 1e-9, false},
		{1, nan, inf, false},
		{1, 2, nan, false},
	} {
		if got := AlmostEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("AlmostEqual(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
