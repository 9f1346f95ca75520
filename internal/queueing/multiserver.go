package queueing

import (
	"fmt"
	"math"

	"sita/internal/dist"
)

// ErlangC reports the M/M/h probability that an arriving job must wait,
// where a = lambda/mu is the offered load in Erlangs and h the number of
// servers. Returns 1 when the system is unstable (a >= h). Terms are
// accumulated with the usual recurrence to avoid factorial overflow;
// where a^h/h! still overflows (hundreds of hosts at high load), the
// normalized Erlang-B recurrence takes over.
// Panics if h <= 0 or a < 0.
func ErlangC(h int, a float64) float64 {
	if h <= 0 || a < 0 {
		panic(fmt.Sprintf("queueing: ErlangC needs h > 0 and a >= 0, got h=%d a=%v", h, a))
	}
	if a == 0 {
		return 0
	}
	rho := a / float64(h)
	if rho >= 1 {
		return 1
	}
	if top, sum := erlangCTerms(h, a, rho); !math.IsInf(sum+top, 0) {
		return top / (sum + top)
	}
	return erlangCFromB(h, a, rho)
}

// erlangCTerms returns the unnormalized Erlang-C terms: top is
// a^h/h!/(1-rho) and sum is the sum of a^k/k! for k < h, built from
// term_k = a^k/k! incrementally. Both overflow to +Inf once a^k/k!
// passes the float64 range.
func erlangCTerms(h int, a, rho float64) (top, sum float64) {
	term := 1.0
	sum = 1.0
	for k := 1; k < h; k++ {
		term *= a / float64(k)
		sum += term
	}
	return term * a / float64(h) / (1 - rho), sum
}

// erlangCFromB computes Erlang C from the Erlang-B blocking probability,
// B_k = a·B_{k-1}/(k + a·B_{k-1}) from B_0 = 1, as B/(1 - rho(1 - B)).
// Every B_k lies in (0, 1], so nothing overflows at any h.
func erlangCFromB(h int, a, rho float64) float64 {
	b := 1.0
	for k := 1; k <= h; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b / (1 - rho*(1-b))
}

// MMh is an M/M/h queue: Poisson arrivals at rate Lambda, h identical
// exponential servers with mean service time MeanService.
type MMh struct {
	Lambda      float64
	MeanService float64
	H           int
}

// NewMMh validates parameters. Panics if lambda, meanService, or h is not
// positive.
func NewMMh(lambda, meanService float64, h int) MMh {
	if lambda <= 0 || meanService <= 0 || h <= 0 {
		panic(fmt.Sprintf("queueing: invalid MMh lambda=%v mean=%v h=%d", lambda, meanService, h))
	}
	return MMh{Lambda: lambda, MeanService: meanService, H: h}
}

// Load reports the per-server utilization rho = lambda*E[X]/h.
func (q MMh) Load() float64 { return q.Lambda * q.MeanService / float64(q.H) }

// MeanWait reports E[W] = C(h, a) / (h*mu - lambda); +Inf if unstable.
func (q MMh) MeanWait() float64 {
	if q.Load() >= 1 {
		return math.Inf(1)
	}
	a := q.Lambda * q.MeanService
	c := ErlangC(q.H, a)
	return c / (float64(q.H)/q.MeanService - q.Lambda)
}

// MGh approximates an M/G/h queue — the model for the Least-Work-Left /
// Central-Queue policy — using the Lee-Longton two-moment approximation:
//
//	E[W_M/G/h] ~= (1 + C^2)/2 * E[W_M/M/h]
//
// with C^2 the squared coefficient of variation of the service distribution.
// This is the approximation family the paper cites (Sozaki-Ross, Wolff): the
// waiting time stays proportional to E[X^2], which is the analytic heart of
// the paper's argument for why LWL cannot escape job-size variability.
type MGh struct {
	Lambda float64
	Size   dist.Distribution
	H      int
}

// NewMGh validates parameters. Panics if lambda <= 0, size is nil, or
// h <= 0.
func NewMGh(lambda float64, size dist.Distribution, h int) MGh {
	if lambda <= 0 || size == nil || h <= 0 {
		panic(fmt.Sprintf("queueing: invalid MGh lambda=%v h=%d", lambda, h))
	}
	return MGh{Lambda: lambda, Size: size, H: h}
}

// Load reports the per-server utilization.
func (q MGh) Load() float64 { return q.Lambda * q.Size.Moment(1) / float64(q.H) }

// MeanWait reports the approximate E[W]; +Inf if unstable.
func (q MGh) MeanWait() float64 {
	if q.Load() >= 1 {
		return math.Inf(1)
	}
	base := NewMMh(q.Lambda, q.Size.Moment(1), q.H).MeanWait()
	scv := dist.SquaredCV(q.Size)
	return (1 + scv) / 2 * base
}

// MeanSlowdown reports E[S] = 1 + E[W]*E[1/X]; the independence of a job's
// size from its delay is inherited from the FCFS central queue.
func (q MGh) MeanSlowdown() float64 {
	if q.Load() >= 1 {
		return math.Inf(1)
	}
	return 1 + q.MeanWait()*q.Size.Moment(-1)
}
