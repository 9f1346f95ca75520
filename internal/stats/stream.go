// Package stats provides streaming and batch statistics used throughout the
// simulator and the experiment harness: Welford mean/variance accumulators,
// per-class tallies, histograms, quantile estimation, and confidence
// intervals.
//
// All accumulators are plain values whose zero value is ready to use, in the
// spirit of sync.Mutex and bytes.Buffer. None of them are safe for concurrent
// use; simulation is single-threaded per replication and cross-replication
// aggregation happens after the fact.
package stats

import (
	"fmt"
	"math"
)

// Stream is a streaming moment accumulator using Welford's algorithm.
// It tracks count, mean, and variance (via the M2 sum of squared
// deviations). The zero value is an empty stream.
//
// Add is the simulator's per-job accounting path — three Adds per
// completed record, hundreds of millions per sweep — so Stream tracks
// only the moments an output actually reads. (It once carried the third
// and fourth central moments too; no table or figure consumes skewness or
// kurtosis, and dropping their update roughly halved Add's cost without
// changing a bit of mean, M2, sum, min, or max.)
type Stream struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
	sum      float64
}

// Add records one observation. It stays under the compiler's inlining
// budget on purpose: the simulator calls it three times per completed
// job on both the engine and direct paths, so the call overhead is pure
// shared tax. (An observation flag used to gate min/max seeding; n == 0
// carries the same information for free.)
func (s *Stream) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	n1 := float64(s.n)
	s.n++
	n := float64(s.n)
	delta := x - s.mean
	deltaN := delta / n
	s.mean += deltaN
	s.m2 += delta * deltaN * n1
	s.sum += x
}

// Merge folds another stream into s using the parallel (pairwise) update
// formulas, so that partitioned accumulation matches sequential accumulation.
func (s *Stream) Merge(o *Stream) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	na, nb := float64(s.n), float64(o.n)
	n := na + nb
	delta := o.mean - s.mean
	delta2 := delta * delta

	m2 := s.m2 + o.m2 + delta2*na*nb/n

	s.mean += delta * nb / n
	s.m2 = m2
	s.n += o.n
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Count reports the number of observations.
func (s *Stream) Count() int64 { return s.n }

// Sum reports the sum of all observations.
func (s *Stream) Sum() float64 { return s.sum }

// Mean reports the sample mean, or 0 if the stream is empty.
func (s *Stream) Mean() float64 { return s.mean }

// Variance reports the unbiased (n-1) sample variance. It returns 0 for
// fewer than two observations.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// PopVariance reports the population (n) variance.
func (s *Stream) PopVariance() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev reports the unbiased sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// SquaredCV reports the squared coefficient of variation Var/Mean^2.
// It returns 0 when the mean is 0.
func (s *Stream) SquaredCV() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.PopVariance() / (s.mean * s.mean)
}

// Min reports the smallest observation (0 if empty).
func (s *Stream) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max reports the largest observation (0 if empty).
func (s *Stream) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// StdErr reports the standard error of the mean.
func (s *Stream) StdErr() float64 {
	if s.n < 2 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI returns the half-width of a normal-approximation confidence interval
// for the mean at the given confidence level (e.g. 0.95).
func (s *Stream) CI(level float64) float64 {
	return zQuantile(0.5+level/2) * s.StdErr()
}

// String summarizes the stream for debugging and reports.
func (s *Stream) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// zQuantile computes the standard normal quantile via the
// Beasley-Springer-Moro rational approximation (max abs error ~3e-9,
// plenty for confidence intervals).
func zQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
