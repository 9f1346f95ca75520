package queueing

import (
	"fmt"
	"math"

	"sita/internal/dist"
)

// GG1 approximates a G/G/1 FCFS queue with the Allen-Cunneen / Kingman
// two-moment formula:
//
//	E[W] ~= rho/(1-rho) * E[X] * (Ca^2 + Cs^2)/2
//
// where Ca^2 is the squared coefficient of variation of interarrival times
// and Cs^2 of service times. It covers the two non-Poisson cases in the
// paper: Round-Robin (host interarrivals are Erlang-h, Ca^2 = 1/h) and
// bursty trace-scaled arrivals (Ca^2 >> 1, section 6).
type GG1 struct {
	Lambda float64
	CA2    float64 // squared coefficient of variation of interarrival gaps
	Size   dist.Distribution
}

// NewGG1 validates parameters. Panics if lambda <= 0, ca2 < 0, or size is
// nil.
func NewGG1(lambda, ca2 float64, size dist.Distribution) GG1 {
	if lambda <= 0 || ca2 < 0 || size == nil {
		panic(fmt.Sprintf("queueing: invalid GG1 lambda=%v ca2=%v", lambda, ca2))
	}
	return GG1{Lambda: lambda, CA2: ca2, Size: size}
}

// Load reports rho = lambda*E[X].
func (q GG1) Load() float64 { return q.Lambda * q.Size.Moment(1) }

// MeanWait reports the approximate mean waiting time; +Inf if unstable.
func (q GG1) MeanWait() float64 {
	rho := q.Load()
	if rho >= 1 {
		return math.Inf(1)
	}
	cs2 := dist.SquaredCV(q.Size)
	return rho / (1 - rho) * q.Size.Moment(1) * (q.CA2 + cs2) / 2
}

// MeanSlowdown reports E[S] = 1 + E[W]*E[1/X] (waiting time approximately
// independent of a job's own size under FCFS).
func (q GG1) MeanSlowdown() float64 {
	if q.Load() >= 1 {
		return math.Inf(1)
	}
	return 1 + q.MeanWait()*q.Size.Moment(-1)
}
