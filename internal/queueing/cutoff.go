package queueing

import (
	"errors"
	"fmt"
	"math"

	"sita/internal/dist"
)

// The cutoff searches below define the three SITA variants for a 2-host
// system, mirroring section 4 of the paper:
//
//   - SITA-E: cutoff equalizes the load on the two hosts.
//   - SITA-U-opt: cutoff minimizes the job-average mean slowdown.
//   - SITA-U-fair: cutoff equalizes the expected slowdown of short and long
//     jobs.
//
// The search space is the set of feasible cutoffs — those keeping both host
// utilizations below 1 (section 4.1).

// ErrInfeasible is returned when no cutoff keeps every host stable.
var ErrInfeasible = errors.New("queueing: no feasible cutoff (system overloaded)")

// supportBounds returns search bounds strictly inside the size support.
func supportBounds(size dist.Distribution) (lo, hi float64) {
	lo, hi = size.Support()
	if lo <= 0 {
		lo = 1e-12
	}
	if math.IsInf(hi, 1) {
		// Cap the search at a size beyond which essentially no mass remains.
		if q, ok := size.(dist.Quantiler); ok {
			hi = q.Quantile(1 - 1e-12)
		} else {
			hi = lo * 1e18
		}
	}
	return lo, hi
}

// workBelow reports the expected work rate routed to the short host at
// cutoff c: lambda * E[X ; X <= c].
func workBelow(lambda float64, size dist.Distribution, c float64) float64 {
	lo, _ := size.Support()
	return lambda * dist.PartialMoment(size, 1, math.Min(lo-1, 0), c)
}

// CutoffForShortLoad finds the cutoff c at which the short host's
// utilization equals target: lambda * E[X ; X <= c] = target. The left side
// is nondecreasing in c, so geometric bisection applies.
func CutoffForShortLoad(lambda float64, size dist.Distribution, target float64) float64 {
	lo, hi := supportBounds(size)
	total := lambda * size.Moment(1)
	if target <= 0 {
		return lo
	}
	if target >= total {
		return hi
	}
	for i := 0; i < 120; i++ {
		mid := math.Sqrt(lo * hi)
		if workBelow(lambda, size, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// EqualLoadCutoff returns the SITA-E cutoff: both hosts carry half the total
// work. It depends only on the size distribution, not the arrival rate.
func EqualLoadCutoff(size dist.Distribution) float64 {
	// Use lambda = 1; the target scales identically.
	return CutoffForShortLoad(1, size, 0.5*size.Moment(1))
}

// FeasibleCutoffRange returns the cutoff interval within which both hosts of
// a 2-host SITA system are stable. The total work rate R = lambda*E[X] must
// be below 2 (both hosts together). The short host's load rises with c from
// 0 to R, the long host's falls from R to 0, so feasibility is
// shortLoad(c) in (R-1, 1).
func FeasibleCutoffRange(lambda float64, size dist.Distribution) (cLo, cHi float64, err error) {
	const margin = 1e-6 // keep strictly inside stability
	total := lambda * size.Moment(1)
	if total >= 2-margin {
		return 0, 0, fmt.Errorf("%w: total work rate %v with 2 hosts", ErrInfeasible, total)
	}
	lo, hi := supportBounds(size)
	cLo, cHi = lo, hi
	if total > 1 {
		cLo = CutoffForShortLoad(lambda, size, total-1+margin)
	}
	cHi = CutoffForShortLoad(lambda, size, math.Min(1-margin, total-margin))
	if cHi <= cLo {
		return 0, 0, fmt.Errorf("%w: empty feasible range [%v, %v]", ErrInfeasible, cLo, cHi)
	}
	return cLo, cHi, nil
}

// OptimalCutoff returns the SITA-U-opt cutoff: the feasible cutoff
// minimizing job-average mean slowdown. The objective is evaluated on a
// geometric grid and refined by golden-section search around the best grid
// point; this is robust to the mild non-smoothness of empirical size
// distributions.
func OptimalCutoff(lambda float64, size dist.Distribution) (float64, error) {
	cLo, cHi, err := FeasibleCutoffRange(lambda, size)
	if err != nil {
		return 0, err
	}
	obj := newCutoffObjective(lambda, size, []float64{cLo})
	const gridN = 192
	best, bestVal := cLo, math.Inf(1)
	logLo, logHi := math.Log(cLo), math.Log(cHi)
	for i := 0; i <= gridN; i++ {
		c := math.Exp(logLo + (logHi-logLo)*float64(i)/gridN)
		if v := obj.trial(0, c); v < bestVal {
			best, bestVal = c, v
		}
	}
	if math.IsInf(bestVal, 1) {
		return 0, fmt.Errorf("%w: no stable cutoff on grid", ErrInfeasible)
	}
	// Golden-section refinement on the bracketing grid interval.
	step := (logHi - logLo) / gridN
	a := math.Max(logLo, math.Log(best)-step)
	b := math.Min(logHi, math.Log(best)+step)
	f := func(lc float64) float64 { return obj.trial(0, math.Exp(lc)) }
	const phi = 0.6180339887498949
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < 80; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = f(x2)
		}
	}
	c := math.Exp((a + b) / 2)
	if obj.trial(0, c) <= bestVal {
		return c, nil
	}
	return best, nil
}

// FairCutoff returns the SITA-U-fair cutoff: the feasible cutoff at which
// the expected slowdown of jobs on the short host equals that of jobs on the
// long host. The difference short-long rises from negative (tiny short
// host, overloaded long host) to positive (overloaded short host), so the
// root is found by a grid bracket plus bisection.
func FairCutoff(lambda float64, size dist.Distribution) (float64, error) {
	cLo, cHi, err := FeasibleCutoffRange(lambda, size)
	if err != nil {
		return 0, err
	}
	lo, hi := outerEdges(size)
	loEdge, hiEdge := dist.NewEdge(size, lo), dist.NewEdge(size, hi)
	diff := func(c float64) float64 {
		e := dist.NewEdge(size, c)
		_, s, _ := hostSlowdown(lambda, size, loEdge, e)
		_, l, _ := hostSlowdown(lambda, size, e, hiEdge)
		if math.IsInf(s, 1) && math.IsInf(l, 1) {
			return 0
		}
		return s - l
	}
	const gridN = 192
	logLo, logHi := math.Log(cLo), math.Log(cHi)
	prevC := math.Exp(logLo)
	prevD := diff(prevC)
	for i := 1; i <= gridN; i++ {
		c := math.Exp(logLo + (logHi-logLo)*float64(i)/gridN)
		d := diff(c)
		if prevD == 0 {
			return prevC, nil
		}
		if prevD*d <= 0 && !math.IsNaN(d) {
			a, b := prevC, c
			da := prevD
			for j := 0; j < 100; j++ {
				mid := math.Sqrt(a * b)
				dm := diff(mid)
				if da*dm <= 0 {
					b = mid
				} else {
					a, da = mid, dm
				}
			}
			return math.Sqrt(a * b), nil
		}
		prevC, prevD = c, d
	}
	// No crossing: at every feasible cutoff one side dominates. Fall back to
	// the cutoff minimizing the imbalance.
	best, bestVal := cLo, math.Inf(1)
	for i := 0; i <= gridN; i++ {
		c := math.Exp(logLo + (logHi-logLo)*float64(i)/gridN)
		if v := math.Abs(diff(c)); v < bestVal {
			best, bestVal = c, v
		}
	}
	return best, nil
}

// RuleOfThumbCutoff implements the paper's section 4.4 heuristic: at system
// load rho, send load fraction rho/2 to the short host. With 2 hosts the
// total work rate is 2*rho, so the short host's target utilization is
// rho^2 (fraction rho/2 of 2*rho).
func RuleOfThumbCutoff(lambda float64, size dist.Distribution) float64 {
	rho := lambda * size.Moment(1) / 2
	targetFraction := rho / 2
	return CutoffForShortLoad(lambda, size, targetFraction*lambda*size.Moment(1))
}
