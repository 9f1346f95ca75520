// Package queueing implements the analytical side of the paper: the
// Pollaczek-Khinchine M/G/1 formulas (theorem 1), the Erlang-C M/M/h
// formulas, the Lee-Longton M/G/h approximation used for Least-Work-Left,
// per-host SITA analysis, and the cutoff searches that define SITA-E,
// SITA-U-opt and SITA-U-fair.
//
// Conventions: hosts have unit speed, so a job's service time equals its
// size; a queue with utilization >= 1 is unstable and all its delay metrics
// are +Inf. Slowdown is S = T/X = 1 + W/X where T is response time, W
// waiting time and X the job's size. (The paper's theorem 1 writes
// E{S} = E{W}E{1/X}, i.e. it drops the deterministic +1; we keep the +1 so
// that simulation and analysis use the identical definition. The comparisons
// between policies are unaffected.)
package queueing

import (
	"fmt"
	"math"

	"sita/internal/dist"
)

// MG1 is a single FCFS M/G/1 queue: Poisson arrivals at rate Lambda, service
// times from Size.
type MG1 struct {
	Lambda float64
	Size   dist.Distribution
}

// NewMG1 validates the arrival rate. Panics if lambda <= 0 or size is nil.
func NewMG1(lambda float64, size dist.Distribution) MG1 {
	if lambda <= 0 || size == nil {
		panic(fmt.Sprintf("queueing: MG1 needs lambda > 0 and a size distribution, got %v", lambda))
	}
	return MG1{Lambda: lambda, Size: size}
}

// Load reports the utilization rho = lambda * E[X].
func (q MG1) Load() float64 { return q.Lambda * q.Size.Moment(1) }

// Stable reports whether rho < 1.
func (q MG1) Stable() bool { return q.Load() < 1 }

// MeanWait reports E[W] = lambda*E[X^2] / (2(1-rho)), the
// Pollaczek-Khinchine mean waiting time; +Inf if unstable.
func (q MG1) MeanWait() float64 {
	rho := q.Load()
	if rho >= 1 {
		return math.Inf(1)
	}
	return q.Lambda * q.Size.Moment(2) / (2 * (1 - rho))
}

// WaitSecondMoment reports E[W^2] = 2E[W]^2 + lambda*E[X^3]/(3(1-rho))
// (Takacs); +Inf if unstable.
func (q MG1) WaitSecondMoment() float64 {
	rho := q.Load()
	if rho >= 1 {
		return math.Inf(1)
	}
	w := q.MeanWait()
	return 2*w*w + q.Lambda*q.Size.Moment(3)/(3*(1-rho))
}

// MeanResponse reports E[T] = E[W] + E[X].
func (q MG1) MeanResponse() float64 { return q.MeanWait() + q.Size.Moment(1) }

// ResponseSecondMoment reports E[T^2] = E[W^2] + 2E[W]E[X] + E[X^2], using
// the independence of a job's own size from its FCFS waiting time.
func (q MG1) ResponseSecondMoment() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.WaitSecondMoment() + 2*q.MeanWait()*q.Size.Moment(1) + q.Size.Moment(2)
}

// ResponseVariance reports Var(T).
func (q MG1) ResponseVariance() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	t := q.MeanResponse()
	return q.ResponseSecondMoment() - t*t
}

// MeanSlowdown reports E[S] = 1 + E[W] * E[1/X]. In FCFS M/G/1 a job's
// waiting time is independent of its own size, so the expectation factors.
func (q MG1) MeanSlowdown() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return 1 + q.MeanWait()*q.Size.Moment(-1)
}

// SlowdownSecondMoment reports E[S^2] = 1 + 2E[W]E[1/X] + E[W^2]E[1/X^2].
func (q MG1) SlowdownSecondMoment() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return 1 + 2*q.MeanWait()*q.Size.Moment(-1) +
		q.WaitSecondMoment()*q.Size.Moment(-2)
}

// SlowdownVariance reports Var(S).
func (q MG1) SlowdownVariance() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	s := q.MeanSlowdown()
	return q.SlowdownSecondMoment() - s*s
}

// MG1PS models an M/G/1 Processor-Sharing queue: the paper's footnote-1
// reference for perfect fairness. PS response time is insensitive to the
// service distribution beyond its mean: E[T | X = x] = x/(1-rho), so every
// job's expected slowdown is exactly 1/(1-rho).
type MG1PS struct {
	Lambda float64
	Size   dist.Distribution
}

// Load reports the utilization rho = lambda * E[X].
func (q MG1PS) Load() float64 { return q.Lambda * q.Size.Moment(1) }

// MeanResponse reports E[T] = E[X]/(1-rho); +Inf if unstable.
func (q MG1PS) MeanResponse() float64 {
	rho := q.Load()
	if rho >= 1 {
		return math.Inf(1)
	}
	return q.Size.Moment(1) / (1 - rho)
}

// MeanSlowdown reports E[S] = 1/(1-rho), identical for every job size.
func (q MG1PS) MeanSlowdown() float64 {
	rho := q.Load()
	if rho >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - rho)
}
