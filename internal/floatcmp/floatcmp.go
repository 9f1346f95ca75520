// Package floatcmp compares floating-point values within a tolerance. It
// imports nothing from this module, so the in-package tests of any package
// can use it without an import cycle.
package floatcmp

import "math"

// AlmostEqual reports whether a and b agree within tol, relative to the
// larger magnitude and absolute below magnitude 1:
//
//	|a-b| <= tol * max(1, |a|, |b|)
//
// Exactly equal values agree, infinities included. NaN agrees with
// nothing, and an infinity agrees with nothing but itself.
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b) // NaN if either is NaN
	if math.IsInf(d, 1) {
		// An infinity against anything else; without this check the
		// bound below would grow to +Inf with it.
		return false
	}
	return d <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
