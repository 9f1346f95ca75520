package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Hyperexponential is a probabilistic mixture of exponentials: with
// probability Probs[i] a variate is drawn from Exponential(Rates[i]).
// Mixtures of exponentials reach any squared coefficient of variation >= 1
// while staying analytically tractable, so they are the classic stand-in for
// moderately variable service times.
type Hyperexponential struct {
	Probs []float64
	Rates []float64
	cum   []float64
}

// NewHyperexponential validates and normalizes the phase parameters.
// Panics if the slices mismatch or are empty, a phase is invalid, or the
// probabilities sum to zero.
func NewHyperexponential(probs, rates []float64) *Hyperexponential {
	if len(probs) == 0 || len(probs) != len(rates) {
		panic(fmt.Sprintf("dist: hyperexponential needs matching non-empty phases, got %d, %d", len(probs), len(rates)))
	}
	total := 0.0
	for i, p := range probs {
		if p < 0 || rates[i] <= 0 {
			panic(fmt.Sprintf("dist: hyperexponential phase %d invalid (p=%v, rate=%v)", i, p, rates[i]))
		}
		total += p
	}
	if total <= 0 {
		panic("dist: hyperexponential probabilities sum to zero")
	}
	h := &Hyperexponential{
		Probs: make([]float64, len(probs)),
		Rates: make([]float64, len(rates)),
		cum:   make([]float64, len(probs)),
	}
	cum := 0.0
	for i := range probs {
		h.Probs[i] = probs[i] / total
		h.Rates[i] = rates[i]
		cum += h.Probs[i]
		h.cum[i] = cum
	}
	return h
}

// NewH2Balanced builds the two-phase hyperexponential with the given mean
// and squared coefficient of variation (>= 1) using balanced means
// (p1/mu1 = p2/mu2), the standard two-moment fit. Panics if scv < 1,
// which a hyperexponential cannot represent.
func NewH2Balanced(mean, scv float64) *Hyperexponential {
	if scv < 1 {
		panic(fmt.Sprintf("dist: H2 requires scv >= 1, got %v", scv))
	}
	if scv <= 1 { // exactly 1 after the guard above: a single exponential
		return NewHyperexponential([]float64{1}, []float64{1 / mean})
	}
	p1 := 0.5 * (1 + math.Sqrt((scv-1)/(scv+1)))
	p2 := 1 - p1
	mu1 := 2 * p1 / mean
	mu2 := 2 * p2 / mean
	return NewHyperexponential([]float64{p1, p2}, []float64{mu1, mu2})
}

// Sample draws a phase, then an exponential variate from it.
func (h *Hyperexponential) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	idx := sort.SearchFloat64s(h.cum, u)
	if idx >= len(h.Rates) {
		idx = len(h.Rates) - 1
	}
	return rng.ExpFloat64() / h.Rates[idx]
}

// CDF reports the mixture CDF.
func (h *Hyperexponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	sum := 0.0
	for i, p := range h.Probs {
		sum += p * (1 - math.Exp(-h.Rates[i]*x))
	}
	return sum
}

// Moment reports the mixture moment, divergent for j <= -1.
func (h *Hyperexponential) Moment(j float64) float64 {
	if j <= -1 {
		return math.Inf(1)
	}
	sum := 0.0
	for i, p := range h.Probs {
		sum += p * math.Gamma(j+1) / math.Pow(h.Rates[i], j)
	}
	return sum
}

// Support reports (0, +Inf).
func (h *Hyperexponential) Support() (float64, float64) { return 0, math.Inf(1) }

// Quantile inverts the CDF numerically by bisection (the CDF is strictly
// increasing and cheap to evaluate).
func (h *Hyperexponential) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Bracket: the slowest phase bounds the tail.
	slowest := h.Rates[0]
	for _, r := range h.Rates {
		if r < slowest {
			slowest = r
		}
	}
	hi := -math.Log1p(-p) / slowest * 2
	for h.CDF(hi) < p {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if h.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Empirical is the empirical distribution of a fixed sample: Sample draws
// with replacement, CDF is the EDF, moments are sample moments. It backs
// trace-driven simulation and the paper's protocol of deriving cutoffs on
// one half of a trace and evaluating on the other half.
type Empirical struct {
	xs []float64 // sorted ascending
}

// NewEmpirical copies and sorts the observations.
// Panics if xs is empty.
func NewEmpirical(xs []float64) *Empirical {
	if len(xs) == 0 {
		panic("dist: empirical distribution needs at least one observation")
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return &Empirical{xs: cp}
}

// Len reports the number of underlying observations.
func (e *Empirical) Len() int { return len(e.xs) }

// Sample draws uniformly with replacement.
func (e *Empirical) Sample(rng *rand.Rand) float64 {
	return e.xs[rng.IntN(len(e.xs))]
}

// CDF reports the empirical distribution function P(X <= x).
func (e *Empirical) CDF(x float64) float64 {
	// Number of observations <= x.
	n := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > x })
	return float64(n) / float64(len(e.xs))
}

// Moment reports the raw sample moment.
func (e *Empirical) Moment(j float64) float64 {
	sum := 0.0
	for _, x := range e.xs {
		sum += math.Pow(x, j)
	}
	return sum / float64(len(e.xs))
}

// PartialMoment reports the sample partial moment over (a, b].
func (e *Empirical) PartialMoment(j, a, b float64) float64 {
	lo := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > a })
	hi := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > b })
	sum := 0.0
	for _, x := range e.xs[lo:hi] {
		sum += math.Pow(x, j)
	}
	return sum / float64(len(e.xs))
}

// Support reports the sample min and max.
func (e *Empirical) Support() (float64, float64) {
	return e.xs[0], e.xs[len(e.xs)-1]
}

// Quantile returns the order statistic at rank ceil(p*n).
func (e *Empirical) Quantile(p float64) float64 {
	if p <= 0 {
		return e.xs[0]
	}
	if p >= 1 {
		return e.xs[len(e.xs)-1]
	}
	idx := int(math.Ceil(p*float64(len(e.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.xs[idx]
}
