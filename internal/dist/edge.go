package dist

import "math"

// edgeOrders are the moment orders Interval reports, in its result order:
// the work E[X], the second moment E[X^2] and E[1/X] that an M/G/1 host's
// mean slowdown needs.
var edgeOrders = [3]float64{1, 2, -1}

// Edge is one end x of a size interval together with the terms x
// contributes to the intervals on either side of it, so that a search that
// moves one cutoff of many evaluates only that cutoff's terms. Build it
// with NewEdge and pass it to Interval with the same distribution.
//
// For a BoundedPareto it holds CDF(x), x clipped to the support [K, P],
// and the clipped value's powers clip^(j-Alpha) for the orders in
// edgeOrders (left unset where j == Alpha, whose partial moment takes the
// logarithm instead). PartialMoment clips a lower end with max(lo, K) and
// an upper end with min(hi, P); one clip to [K, P] serves both roles,
// because an interval whose lower end is at or above P, or whose upper end
// is at or below K, is empty whichever way its ends are clipped. For any
// other distribution an Edge holds only x.
type Edge struct {
	X    float64
	cdf  float64
	clip float64
	pow  [3]float64
}

// NewEdge evaluates d's interval terms at x.
func NewEdge(d Distribution, x float64) Edge {
	if b, ok := d.(BoundedPareto); ok {
		return b.edge(x)
	}
	return Edge{X: x}
}

// Interval reports Prob(d, lo.X, hi.X) and PartialMoment(d, j, lo.X, hi.X)
// for j = 1, 2 and -1, each bit for bit. lo and hi must come from NewEdge
// with the same d.
func Interval(d Distribution, lo, hi Edge) (prob, m1, m2, mInv float64) {
	if b, ok := d.(BoundedPareto); ok {
		return b.interval(lo, hi)
	}
	a, z := lo.X, hi.X
	return Prob(d, a, z), PartialMoment(d, 1, a, z), PartialMoment(d, 2, a, z), PartialMoment(d, -1, a, z)
}

// edge computes the terms PartialMoment and CDF would compute at x.
func (b BoundedPareto) edge(x float64) Edge {
	e := Edge{X: x, cdf: b.CDF(x), clip: math.Min(math.Max(x, b.K), b.P)}
	for k, j := range edgeOrders {
		//lint:allow floateq exact dispatch at the removable singularity j = alpha, as in PartialMoment
		if j != b.Alpha {
			e.pow[k] = math.Pow(e.clip, j-b.Alpha)
		}
	}
	return e
}

// interval is Prob followed by PartialMoment for each order, with their
// guards and expression order, reading the edges' cached terms.
func (b BoundedPareto) interval(lo, hi Edge) (prob, m1, m2, mInv float64) {
	if !(hi.X < lo.X) {
		if prob = hi.cdf - lo.cdf; prob < 0 {
			prob = 0
		}
	}
	if hi.X <= lo.X || hi.clip <= lo.clip {
		return prob, 0, 0, 0
	}
	var m [3]float64
	for k, j := range edgeOrders {
		//lint:allow floateq exact dispatch at the removable singularity j = alpha, as in PartialMoment
		if j == b.Alpha {
			m[k] = b.c * math.Log(hi.clip/lo.clip)
			continue
		}
		e := j - b.Alpha
		m[k] = b.c * (hi.pow[k] - lo.pow[k]) / e
	}
	return prob, m[0], m[1], m[2]
}
