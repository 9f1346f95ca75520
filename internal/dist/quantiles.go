package dist

import (
	"math"
	"math/bits"
)

// quantileBlock is how many draws Quantiles carries through each phase.
const quantileBlock = 256

// Quantiles replaces each u in us with Quantile(u), bit for bit, and is
// the way to draw many sizes at once. Quantile's cost is math.Pow(x, y)
// with x = 1-u·norm and the fixed y = -1/Alpha; for finite x in (0, 1)
// math.Pow computes Exp(yf·Log(x)), squares Frexp(x) through the bits
// of yi, takes the reciprocal and finishes with Ldexp, one dependent
// chain per draw. Quantiles splits y once, as math.Pow does, and runs
// the same operations on the same operands in phases over a block of
// draws — every Log, then every Exp, then the rest — so that the
// independent draws' chains overlap.
//
// Exponents that math.Pow special-cases (0, ±0.5, 1, NaN, ±Inf, and
// |y| ≥ 2^62) send the whole call through Quantile; so does any single
// draw whose u is not in (0, 1), whose x is not a normal value in
// (0, 1), or whose squaring would leave math.Pow's exponent range.
func (b BoundedPareto) Quantiles(us []float64) {
	y := -1 / b.Alpha
	//lint:allow floateq math.Pow's exact special-case dispatch on the exponent
	if y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) || math.Abs(y) >= 1<<62 {
		for i, u := range us {
			us[i] = b.Quantile(u)
		}
		return
	}
	yi, yf := math.Modf(math.Abs(y))
	if yf > 0.5 {
		yf--
		yi++
	}
	n := uint64(yi) // the squaring loop walks n's bits
	// math.Pow leaves its squaring loop once |xe| passes 2^12, and each
	// step at most doubles |xe|+1, so a draw with |xe|+1 <= maxXe never
	// gets there.
	maxXe := int64(1 << 12)
	if steps := bits.Len64(n); steps > 1 {
		maxXe >>= min(steps-1, 13)
	}
	var xs, t [quantileBlock]float64
	for lo := 0; lo < len(us); lo += quantileBlock {
		block := us[lo:min(lo+quantileBlock, len(us))]
		for i, u := range block {
			xs[i] = 1 - u*b.norm
		}
		if yf != 0 {
			expLogs(t[:len(block)], xs[:len(block)], yf)
		}
		for i, u := range block {
			x := xs[i]
			if !(u > 0 && u < 1 && x >= 0x1p-1022 && x < 1) {
				block[i] = b.Quantile(u)
				continue
			}
			a1 := 1.0
			if yf != 0 {
				a1 = t[i]
			}
			// Frexp of a normal x: x1 in [0.5, 1), x = x1·2^xe.
			xb := math.Float64bits(x)
			x1 := math.Float64frombits(xb&^(0x7ff<<52) | 1022<<52)
			xe := int64(xb>>52) - 1022
			if 1-xe > maxXe {
				block[i] = b.Quantile(u)
				continue
			}
			var ae int64
			for k := n; k != 0; k >>= 1 {
				if k&1 == 1 {
					a1 *= x1
					ae += xe
				}
				x1 *= x1
				xe <<= 1
				// x1 is now in [0.25, 1). Below 0.5 its exponent field
				// is 1021, odd, and doubling x1 adds that bit back.
				sq := math.Float64bits(x1)
				odd := sq >> 52 & 1
				x1 = math.Float64frombits(sq + odd<<52)
				xe -= int64(odd)
			}
			if y < 0 {
				a1 = 1 / a1
				ae = -ae
			}
			// Ldexp(a1, ae) is an exact power-of-two multiply whenever
			// 2^ae and the product are both normal.
			r := math.NaN()
			if -1022 <= ae && ae <= 1023 {
				r = a1 * math.Float64frombits(uint64(ae+1023)<<52)
			}
			if !(r >= 0x1p-1022 && r <= math.MaxFloat64) {
				r = math.Ldexp(a1, int(ae))
			}
			block[i] = b.K * r
		}
	}
}

// expLogs sets t[i] = Exp(yf·Log(xs[i])) in two passes, every Log and
// then every Exp. It is a function of its own so that few values are
// live across the calls.
func expLogs(t, xs []float64, yf float64) {
	xs = xs[:len(t)]
	for i := range t {
		t[i] = yf * math.Log(xs[i])
	}
	for i := range t {
		t[i] = math.Exp(t[i])
	}
}
