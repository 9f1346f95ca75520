package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// BoundedPareto is the Bounded Pareto distribution B(K, P, Alpha): the
// Pareto density restricted to [K, P] and renormalized. It is the paper's
// canonical heavy-tailed job-size model: all moments exist (so analysis is
// well-posed) yet for small Alpha a tiny fraction of jobs carries half the
// load.
type BoundedPareto struct {
	Alpha float64 // tail index
	K     float64 // smallest job
	P     float64 // largest job
	norm  float64 // 1 - (K/P)^Alpha, cached normalizer
	c     float64 // Alpha*K^Alpha/norm, the partial moments' cached factor
}

// NewBoundedPareto validates parameters and precomputes the normalizer and
// the partial moments' factor. Panics unless alpha > 0 and 0 < k < p.
func NewBoundedPareto(alpha, k, p float64) BoundedPareto {
	if alpha <= 0 || k <= 0 || p <= k {
		panic(fmt.Sprintf("dist: bounded pareto needs alpha>0, 0<k<p, got alpha=%v k=%v p=%v", alpha, k, p))
	}
	b := BoundedPareto{Alpha: alpha, K: k, P: p, norm: 1 - math.Pow(k/p, alpha)}
	b.c = b.Alpha * math.Pow(b.K, b.Alpha) / b.norm
	return b
}

// Sample draws by inverse CDF.
func (b BoundedPareto) Sample(rng *rand.Rand) float64 {
	return b.Quantile(rng.Float64())
}

// CDF reports P(X <= x).
func (b BoundedPareto) CDF(x float64) float64 {
	switch {
	case x <= b.K:
		return 0
	case x >= b.P:
		return 1
	default:
		return (1 - math.Pow(b.K/x, b.Alpha)) / b.norm
	}
}

// Quantile inverts the CDF.
func (b BoundedPareto) Quantile(u float64) float64 {
	switch {
	case u <= 0:
		return b.K
	case u >= 1:
		return b.P
	default:
		return b.K * math.Pow(1-u*b.norm, -1/b.Alpha)
	}
}

// Moment reports E[X^j] in closed form; every moment is finite.
func (b BoundedPareto) Moment(j float64) float64 {
	return b.PartialMoment(j, b.K, b.P)
}

// PartialMoment reports E[X^j ; a < X <= b] in closed form. The interval is
// clipped to the support.
func (b BoundedPareto) PartialMoment(j, lo, hi float64) float64 {
	lo = math.Max(lo, b.K)
	hi = math.Min(hi, b.P)
	if hi <= lo {
		return 0
	}
	//lint:allow floateq exact dispatch at the removable singularity j = alpha
	if j == b.Alpha {
		return b.c * math.Log(hi/lo)
	}
	e := j - b.Alpha
	return b.c * (math.Pow(hi, e) - math.Pow(lo, e)) / e
}

// Support reports [K, P].
func (b BoundedPareto) Support() (float64, float64) { return b.K, b.P }

// LoadCutoff returns the size c such that jobs of size <= c carry the given
// fraction of the total expected work: solve
// E[X ; K < X <= c] = frac * E[X] by bisection. This is exactly the SITA-E
// cutoff computation for a 2-host system when frac = 1/2.
func (b BoundedPareto) LoadCutoff(frac float64) float64 {
	if frac <= 0 {
		return b.K
	}
	if frac >= 1 {
		return b.P
	}
	target := frac * b.Moment(1)
	lo, hi := b.K, b.P
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection suits the long support
		if b.PartialMoment(1, b.K, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// FitBoundedParetoMean finds the BoundedPareto with the given smallest job
// k, largest job p, and mean by solving for the tail index alpha (the mean
// is strictly decreasing in alpha for fixed k and p). This is the primary
// trace calibration: a job log's minimum, maximum and mean are exactly the
// statistics Table 1 of the paper publishes.
func FitBoundedParetoMean(mean, k, p float64) (BoundedPareto, error) {
	if k <= 0 || p <= k || mean <= k || mean >= p {
		return BoundedPareto{}, fmt.Errorf("dist: infeasible mean-fit targets mean=%v k=%v p=%v", mean, k, p)
	}
	lo, hi := 0.005, 50.0
	if NewBoundedPareto(lo, k, p).Moment(1) < mean || NewBoundedPareto(hi, k, p).Moment(1) > mean {
		return BoundedPareto{}, fmt.Errorf("dist: mean %v unreachable for k=%v p=%v", mean, k, p)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if NewBoundedPareto(mid, k, p).Moment(1) > mean {
			lo = mid
		} else {
			hi = mid
		}
	}
	return NewBoundedPareto((lo+hi)/2, k, p), nil
}
