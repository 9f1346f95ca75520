// Package dist implements the probability distributions the paper's
// workloads and analysis depend on: the Bounded Pareto job-size model,
// fitted to a log's mean, minimum and maximum (FitBoundedParetoMean);
// its truncation to a SITA size interval; and the lognormal gap
// distribution of bursty arrivals. Exponential, uniform, deterministic,
// hyperexponential and empirical distributions serve as inputs and
// closed-form oracles for the queueing and simulation tests.
//
// Beyond sampling, the queueing analysis in internal/queueing needs raw
// moments E[X^j] for j in {-2, -1, 1, 2, 3} and *partial* moments
// E[X^j ; a < X <= b] (the moments of a size distribution restricted to a
// SITA size interval). Distributions provide closed-form moments where
// they exist, with a numeric quantile-integration fallback for partial
// moments. Lognormal is only ever sampled, so it has neither a quantile
// function nor partial moments.
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Distribution is a continuous positive distribution with enough structure
// for both simulation (Sample) and M/G/1 analysis (moments, CDF).
type Distribution interface {
	// Sample draws one variate using the provided generator.
	Sample(rng *rand.Rand) float64
	// CDF reports P(X <= x).
	CDF(x float64) float64
	// Moment reports the raw moment E[X^j]. j may be fractional or
	// negative. Distributions return math.Inf(1) for divergent moments.
	Moment(j float64) float64
	// Support reports the smallest and largest attainable values
	// (possibly +Inf).
	Support() (lo, hi float64)
}

// Quantiler is implemented by distributions with an (exact or numeric)
// inverse CDF.
type Quantiler interface {
	// Quantile returns inf{x : CDF(x) >= p} for p in [0, 1].
	Quantile(p float64) float64
}

// PartialMomenter is implemented by distributions with closed-form partial
// moments; PartialMoment is used by the SITA per-host analysis.
type PartialMomenter interface {
	// PartialMoment reports E[X^j ; a < X <= b], the unnormalized
	// contribution of the interval (a, b] to the j-th raw moment.
	PartialMoment(j, a, b float64) float64
}

// SquaredCV reports the squared coefficient of variation
// Var(X)/E[X]^2 = E[X^2]/E[X]^2 - 1.
func SquaredCV(d Distribution) float64 {
	m1 := d.Moment(1)
	if m1 == 0 {
		return 0
	}
	m2 := d.Moment(2)
	if math.IsInf(m2, 1) {
		return math.Inf(1)
	}
	return m2/(m1*m1) - 1
}

// Prob reports P(a < X <= b).
func Prob(d Distribution, a, b float64) float64 {
	if b < a {
		return 0
	}
	p := d.CDF(b) - d.CDF(a)
	if p < 0 { // guard tiny negative values from floating-point noise
		return 0
	}
	return p
}

// PartialMoment reports E[X^j ; a < X <= b] for any distribution, preferring
// a closed form and falling back to numeric integration over the quantile
// function: E[X^j ; a<X<=b] = integral_{F(a)}^{F(b)} Q(u)^j du.
// Panics if d supports neither PartialMomenter nor Quantiler.
func PartialMoment(d Distribution, j, a, b float64) float64 {
	if b <= a {
		return 0
	}
	if pm, ok := d.(PartialMomenter); ok {
		return pm.PartialMoment(j, a, b)
	}
	q, ok := d.(Quantiler)
	if !ok {
		panic(fmt.Sprintf("dist: %T supports neither PartialMoment nor Quantile", d))
	}
	ua, ub := d.CDF(a), d.CDF(b)
	if ub <= ua {
		return 0
	}
	return integrate(func(u float64) float64 {
		return math.Pow(q.Quantile(u), j)
	}, ua, ub, 1e-10)
}

// Truncated is the conditional distribution of an inner distribution
// restricted to the interval (Lo, Hi]. SITA host i sees exactly such a
// distribution. The zero value is not useful; build with NewTruncated.
type Truncated struct {
	inner  Distribution
	lo, hi float64
	mass   float64 // P(lo < X <= hi)
}

// NewTruncated builds the conditional distribution X | lo < X <= hi.
// It panics if the interval has (numerically) zero probability mass, which
// would indicate an infeasible SITA cutoff.
func NewTruncated(d Distribution, lo, hi float64) *Truncated {
	mass := Prob(d, lo, hi)
	if mass <= 0 {
		panic(fmt.Sprintf("dist: truncation (%g, %g] has zero mass", lo, hi))
	}
	return &Truncated{inner: d, lo: lo, hi: hi, mass: mass}
}

// Sample draws by inverse-CDF within the interval when the inner
// distribution exposes a quantile function, else by rejection.
func (t *Truncated) Sample(rng *rand.Rand) float64 {
	if q, ok := t.inner.(Quantiler); ok {
		ua := t.inner.CDF(t.lo)
		u := ua + rng.Float64()*t.mass
		return q.Quantile(u)
	}
	for i := 0; ; i++ {
		x := t.inner.Sample(rng)
		if x > t.lo && x <= t.hi {
			return x
		}
		if i > 1_000_000 {
			//lint:allow panicpolicy invariant: NewTruncated guarantees the interval has mass, so an exhausted rejection loop means the distribution is inconsistent
			panic("dist: truncated rejection sampling failed to hit interval")
		}
	}
}

// CDF reports the conditional CDF.
func (t *Truncated) CDF(x float64) float64 {
	switch {
	case x <= t.lo:
		return 0
	case x >= t.hi:
		return 1
	default:
		return Prob(t.inner, t.lo, x) / t.mass
	}
}

// Moment reports the conditional raw moment E[X^j | lo < X <= hi].
func (t *Truncated) Moment(j float64) float64 {
	return PartialMoment(t.inner, j, t.lo, t.hi) / t.mass
}

// Support reports the truncation interval.
func (t *Truncated) Support() (lo, hi float64) { return t.lo, t.hi }

// Quantile inverts the conditional CDF when the inner distribution allows.
// Panics if the inner distribution has no quantile function.
func (t *Truncated) Quantile(p float64) float64 {
	q, ok := t.inner.(Quantiler)
	if !ok {
		panic(fmt.Sprintf("dist: truncated inner %T has no quantile", t.inner))
	}
	ua := t.inner.CDF(t.lo)
	return q.Quantile(ua + p*t.mass)
}

// integrate is an adaptive Simpson integrator with a recursion-depth guard.
// It is accurate enough for the smooth quantile-power integrands used here.
func integrate(f func(float64) float64, a, b, tol float64) float64 {
	fa, fb := f(a), f(b)
	m := (a + b) / 2
	fm := f(m)
	whole := (b - a) / 6 * (fa + 4*fm + fb)
	return adaptiveSimpson(f, a, b, fa, fb, fm, whole, tol, 50)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fb, fm, whole, tol float64, depth int) float64 {
	m := (a + b) / 2
	lm, rm := (a+m)/2, (m+b)/2
	flm, frm := f(lm), f(rm)
	left := (m - a) / 6 * (fa + 4*flm + fm)
	right := (b - m) / 6 * (fm + 4*frm + fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol*(1+math.Abs(whole)) {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpson(f, a, m, fa, fm, flm, left, tol/2, depth-1) +
		adaptiveSimpson(f, m, b, fm, fb, frm, right, tol/2, depth-1)
}
