package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Exponential is the exponential distribution with the given rate
// (mean 1/Rate). Its squared coefficient of variation is exactly 1, making
// it the light-tailed reference point in the paper's analysis.
type Exponential struct {
	Rate float64
}

// NewExponential builds an exponential distribution with the given mean.
// Panics if mean is not positive.
func NewExponential(mean float64) Exponential {
	if mean <= 0 {
		panic(fmt.Sprintf("dist: exponential mean must be positive, got %v", mean))
	}
	return Exponential{Rate: 1 / mean}
}

// Sample draws an exponential variate.
func (e Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() / e.Rate }

// CDF reports P(X <= x).
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-e.Rate*x)
}

// Moment reports E[X^j] = Gamma(j+1)/Rate^j, divergent for j <= -1.
func (e Exponential) Moment(j float64) float64 {
	if j <= -1 {
		return math.Inf(1)
	}
	return math.Gamma(j+1) / math.Pow(e.Rate, j)
}

// Support reports (0, +Inf).
func (e Exponential) Support() (float64, float64) { return 0, math.Inf(1) }

// Quantile inverts the CDF.
func (e Exponential) Quantile(p float64) float64 {
	return -math.Log1p(-p) / e.Rate
}

// Deterministic is the degenerate distribution concentrated at Value.
type Deterministic struct {
	Value float64
}

// Sample returns Value.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.Value }

// CDF is the unit step at Value.
func (d Deterministic) CDF(x float64) float64 {
	if x >= d.Value {
		return 1
	}
	return 0
}

// Moment reports Value^j.
func (d Deterministic) Moment(j float64) float64 { return math.Pow(d.Value, j) }

// Support reports the single point.
func (d Deterministic) Support() (float64, float64) { return d.Value, d.Value }

// Quantile returns Value for every p.
func (d Deterministic) Quantile(float64) float64 { return d.Value }

// PartialMoment reports Value^j when Value lies in (a, b], else 0.
func (d Deterministic) PartialMoment(j, a, b float64) float64 {
	if d.Value > a && d.Value <= b {
		return math.Pow(d.Value, j)
	}
	return 0
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// NewUniform validates the bounds and returns the distribution.
// Panics unless lo < hi.
func NewUniform(lo, hi float64) Uniform {
	if hi <= lo {
		panic(fmt.Sprintf("dist: uniform needs lo < hi, got [%v, %v]", lo, hi))
	}
	return Uniform{Lo: lo, Hi: hi}
}

// Sample draws uniformly on [Lo, Hi].
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Lo + rng.Float64()*(u.Hi-u.Lo)
}

// CDF reports P(X <= x).
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// Moment reports E[X^j] = (Hi^{j+1} - Lo^{j+1}) / ((j+1)(Hi-Lo)) with the
// logarithmic special case at j = -1. Moments with j <= -1 diverge when the
// support touches zero.
func (u Uniform) Moment(j float64) float64 {
	if u.Lo <= 0 && j < 0 {
		return math.Inf(1)
	}
	//lint:allow floateq exact dispatch at the removable singularity j = -1
	if j == -1 {
		return math.Log(u.Hi/u.Lo) / (u.Hi - u.Lo)
	}
	return (math.Pow(u.Hi, j+1) - math.Pow(u.Lo, j+1)) / ((j + 1) * (u.Hi - u.Lo))
}

// Support reports [Lo, Hi].
func (u Uniform) Support() (float64, float64) { return u.Lo, u.Hi }

// Quantile inverts the CDF.
func (u Uniform) Quantile(p float64) float64 { return u.Lo + p*(u.Hi-u.Lo) }

// Lognormal is the distribution of exp(N(Mu, Sigma^2)). It is a convenient
// bursty interarrival-time model: its squared coefficient of variation
// exp(Sigma^2) - 1 can be dialed arbitrarily high.
type Lognormal struct {
	Mu, Sigma float64
}

// NewLognormalFromMeanSCV builds the lognormal with the given mean and
// squared coefficient of variation. Panics unless both are positive.
func NewLognormalFromMeanSCV(mean, scv float64) Lognormal {
	if mean <= 0 || scv <= 0 {
		panic(fmt.Sprintf("dist: lognormal needs positive mean and scv, got %v, %v", mean, scv))
	}
	sigma2 := math.Log(1 + scv)
	mu := math.Log(mean) - sigma2/2
	return Lognormal{Mu: mu, Sigma: math.Sqrt(sigma2)}
}

// Sample draws a lognormal variate.
func (l Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// CDF reports P(X <= x) via the error function.
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// Moment reports E[X^j] = exp(j*Mu + j^2*Sigma^2/2); finite for every j.
func (l Lognormal) Moment(j float64) float64 {
	return math.Exp(j*l.Mu + j*j*l.Sigma*l.Sigma/2)
}

// Support reports (0, +Inf).
func (l Lognormal) Support() (float64, float64) { return 0, math.Inf(1) }
