package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Pareto is the (unbounded) Pareto distribution with tail index Alpha and
// minimum K: P(X > x) = (K/x)^Alpha for x >= K. Process lifetimes and
// supercomputing job sizes are empirically close to Pareto with Alpha near 1.
type Pareto struct {
	Alpha, K float64
}

// NewPareto validates the parameters and returns the distribution.
// Panics unless alpha and k are positive.
func NewPareto(alpha, k float64) Pareto {
	if alpha <= 0 || k <= 0 {
		panic(fmt.Sprintf("dist: pareto needs positive alpha and k, got %v, %v", alpha, k))
	}
	return Pareto{Alpha: alpha, K: k}
}

// Sample draws by inverse CDF.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	return p.Quantile(rng.Float64())
}

// CDF reports P(X <= x).
func (p Pareto) CDF(x float64) float64 {
	if x <= p.K {
		return 0
	}
	return 1 - math.Pow(p.K/x, p.Alpha)
}

// Moment reports E[X^j] = Alpha*K^j/(Alpha-j), divergent for j >= Alpha.
func (p Pareto) Moment(j float64) float64 {
	if j >= p.Alpha {
		return math.Inf(1)
	}
	return p.Alpha * math.Pow(p.K, j) / (p.Alpha - j)
}

// Support reports [K, +Inf).
func (p Pareto) Support() (float64, float64) { return p.K, math.Inf(1) }

// Quantile inverts the CDF.
func (p Pareto) Quantile(u float64) float64 {
	if u >= 1 {
		return math.Inf(1)
	}
	return p.K * math.Pow(1-u, -1/p.Alpha)
}

// PartialMoment reports E[X^j ; a < X <= b] in closed form.
func (p Pareto) PartialMoment(j, a, b float64) float64 {
	a = math.Max(a, p.K)
	if b <= a {
		return 0
	}
	// Density alpha*K^alpha*x^{-alpha-1} integrated against x^j.
	c := p.Alpha * math.Pow(p.K, p.Alpha)
	//lint:allow floateq exact dispatch at the removable singularity j = alpha
	if j == p.Alpha {
		return c * math.Log(b/a)
	}
	e := j - p.Alpha
	return c * (math.Pow(b, e) - math.Pow(a, e)) / e
}

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
}

// NewBoundedPareto validates parameters and precomputes the normalizer.
// Panics unless alpha > 0 and 0 < k < p.
func NewBoundedPareto(alpha, k, p float64) BoundedPareto {
	if alpha <= 0 || k <= 0 || p <= k {
		panic(fmt.Sprintf("dist: bounded pareto needs alpha>0, 0<k<p, got alpha=%v k=%v p=%v", alpha, k, p))
	}
	return BoundedPareto{Alpha: alpha, K: k, P: p, norm: 1 - math.Pow(k/p, alpha)}
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
	c := b.Alpha * math.Pow(b.K, b.Alpha) / b.norm
	//lint:allow floateq exact dispatch at the removable singularity j = alpha
	if j == b.Alpha {
		return c * math.Log(hi/lo)
	}
	e := j - b.Alpha
	return c * (math.Pow(hi, e) - math.Pow(lo, e)) / e
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

// FitBoundedPareto finds the BoundedPareto with the given mean, squared
// coefficient of variation, and upper bound p. The lower bound k and tail
// index alpha are solved jointly: for each candidate alpha, k is chosen by
// bisection to match the mean (the mean is increasing in k), then alpha is
// chosen by bisection to match the SCV (the SCV is decreasing in alpha).
// This is the calibration entry point used to rebuild the paper's C90, J90
// and CTC workloads from their published statistics.
func FitBoundedPareto(mean, scv, p float64) (BoundedPareto, error) {
	if mean <= 0 || scv <= 0 || p <= mean {
		return BoundedPareto{}, fmt.Errorf("dist: infeasible fit targets mean=%v scv=%v p=%v", mean, scv, p)
	}
	kForAlpha := func(alpha float64) (float64, bool) {
		lo := p * 1e-15
		hi := mean // k can never exceed the mean
		bLo := NewBoundedPareto(alpha, lo, p)
		if bLo.Moment(1) > mean {
			return 0, false // even the tiniest k overshoots the mean
		}
		for i := 0; i < 200; i++ {
			mid := math.Sqrt(lo * hi)
			if NewBoundedPareto(alpha, mid, p).Moment(1) < mean {
				lo = mid
			} else {
				hi = mid
			}
		}
		return math.Sqrt(lo * hi), true
	}
	scvAt := func(alpha float64) (float64, bool) {
		k, ok := kForAlpha(alpha)
		if !ok {
			return 0, false
		}
		return SquaredCV(NewBoundedPareto(alpha, k, p)), true
	}
	// Bracket the target SCV. SCV decreases as alpha grows, so scan a grid
	// for a sign change of scvAt(alpha) - scv.
	const aMin, aMax = 0.05, 20.0
	var prevA float64
	var prevSCV float64
	havePrev := false
	for a := aMin; a <= aMax; a *= 1.25 {
		s, ok := scvAt(a)
		if !ok {
			continue
		}
		if havePrev && (prevSCV-scv)*(s-scv) <= 0 {
			loA, hiA := prevA, a
			for i := 0; i < 200; i++ {
				mid := (loA + hiA) / 2
				sm, ok := scvAt(mid)
				if !ok {
					return BoundedPareto{}, fmt.Errorf("dist: fit lost feasibility at alpha=%v", mid)
				}
				if (prevSCV-scv)*(sm-scv) > 0 {
					loA = mid
				} else {
					hiA = mid
				}
			}
			alpha := (loA + hiA) / 2
			k, _ := kForAlpha(alpha)
			return NewBoundedPareto(alpha, k, p), nil
		}
		prevA, prevSCV, havePrev = a, s, true
	}
	return BoundedPareto{}, fmt.Errorf("dist: no bounded pareto matches mean=%v scv=%v p=%v", mean, scv, p)
}
