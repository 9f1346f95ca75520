package queueing

import (
	"fmt"
	"math"

	"sita/internal/dist"
)

// Multi-host cutoff searches (h > 2). The paper sidesteps these because the
// search space grows and runtime estimates must be more precise (section 5);
// it instead reuses the 2-host cutoff with two host groups. We implement the
// full h-1-cutoff searches anyway as the "expensive" baseline, so the
// grouped scheme can be compared against it (an ablation the paper alludes
// to but does not run).

// EqualLoadCutoffs returns the SITA-E cutoffs for h hosts: h-1 cutoffs
// splitting the total work into h equal shares.
func EqualLoadCutoffs(size dist.Distribution, h int) ([]float64, error) {
	if h < 2 {
		return nil, fmt.Errorf("queueing: EqualLoadCutoffs needs h >= 2, got %d", h)
	}
	total := size.Moment(1)
	cuts := make([]float64, h-1)
	for i := 1; i < h; i++ {
		cuts[i-1] = CutoffForShortLoad(1, size, total*float64(i)/float64(h))
	}
	return cuts, nil
}

// cutoffObjective is the job-average mean slowdown of an h-host SITA system
// as a function of its cutoffs: +Inf when any host is unstable or the
// cutoffs do not strictly ascend, else the same value as
// NewSITA(lambda, size, cuts).Analyze().MeanSlowdown, bit for bit. It
// caches each host's JobFraction*MeanSlowdown term and load, and each
// host edge's dist.Edge. Moving cutoff i changes only its own edge and
// hosts i and i+1, so a trial move builds one edge, evaluates two hosts
// and re-sums the h cached terms in host order, which is Analyze's order.
// An empty host's term is +0, and adding +0 to the sum changes nothing, so
// the sum matches Analyze skipping that host.
type cutoffObjective struct {
	lambda float64
	size   dist.Distribution
	cuts   []float64   // current cutoffs, owned
	edges  []dist.Edge // host k serves (edges[k], edges[k+1]]: the outer low edge, the cutoffs, the outer high edge
	terms  []float64   // per host JobFraction*MeanSlowdown
	loads  []float64   // per host utilization
}

// newCutoffObjective evaluates every host at cuts, which it takes over.
func newCutoffObjective(lambda float64, size dist.Distribution, cuts []float64) *cutoffObjective {
	h := len(cuts) + 1
	o := &cutoffObjective{lambda: lambda, size: size, cuts: cuts,
		edges: make([]dist.Edge, h+1), terms: make([]float64, h), loads: make([]float64, h)}
	lo, hi := outerEdges(size)
	o.edges[0], o.edges[h] = dist.NewEdge(size, lo), dist.NewEdge(size, hi)
	for k, c := range cuts {
		o.edges[k+1] = dist.NewEdge(size, c)
	}
	for k := range o.terms {
		o.terms[k], o.loads[k] = o.host(o.edges[k], o.edges[k+1])
	}
	return o
}

// host evaluates the host serving (lo.X, hi.X].
func (o *cutoffObjective) host(lo, hi dist.Edge) (term, load float64) {
	frac, slowdown, load := hostSlowdown(o.lambda, o.size, lo, hi)
	return frac * slowdown, load
}

// value reports the objective at the current cutoffs: a trial that moves
// nothing.
func (o *cutoffObjective) value() float64 { return o.trial(0, o.cuts[0]) }

// trial reports the objective with cutoff i moved to c, leaving the
// current cutoffs and the cache unchanged.
func (o *cutoffObjective) trial(i int, c float64) float64 {
	old := o.cuts[i]
	o.cuts[i] = c
	ascending := strictlyAscending(o.cuts)
	o.cuts[i] = old
	if !ascending {
		return math.Inf(1)
	}
	e := dist.NewEdge(o.size, c)
	ti, li := o.host(o.edges[i], e)
	tj, lj := o.host(e, o.edges[i+2])
	var sum float64
	for k, term := range o.terms {
		load := o.loads[k]
		switch k {
		case i:
			term, load = ti, li
		case i + 1:
			term, load = tj, lj
		}
		if load >= 1 {
			return math.Inf(1)
		}
		sum += term
	}
	return sum
}

// move sets cutoff i to c and refreshes its edge and the two hosts it
// bounds.
func (o *cutoffObjective) move(i int, c float64) {
	o.cuts[i] = c
	o.edges[i+1] = dist.NewEdge(o.size, c)
	o.terms[i], o.loads[i] = o.host(o.edges[i], o.edges[i+1])
	o.terms[i+1], o.loads[i+1] = o.host(o.edges[i+1], o.edges[i+2])
}

// strictlyAscending reports whether every cutoff exceeds the one before.
func strictlyAscending(cuts []float64) bool {
	for k := 1; k < len(cuts); k++ {
		if cuts[k] <= cuts[k-1] {
			return false
		}
	}
	return true
}

// OptimalCutoffs returns SITA-U-opt cutoffs for h hosts by cyclic coordinate
// descent: starting from the equal-load cutoffs, each cutoff in turn is
// optimized by golden-section search between its neighbors until the
// objective stops improving.
func OptimalCutoffs(lambda float64, size dist.Distribution, h int) ([]float64, error) {
	if h < 2 {
		return nil, fmt.Errorf("queueing: OptimalCutoffs needs h >= 2, got %d", h)
	}
	if h == 2 {
		c, err := OptimalCutoff(lambda, size)
		if err != nil {
			return nil, err
		}
		return []float64{c}, nil
	}
	lo, hi := supportBounds(size)
	cuts, err := EqualLoadCutoffs(size, h)
	if err != nil {
		return nil, err
	}
	obj := newCutoffObjective(lambda, size, cuts)
	best := obj.value()
	if math.IsInf(best, 1) {
		return nil, fmt.Errorf("%w: equal-load start infeasible for h=%d", ErrInfeasible, h)
	}
	const phi = 0.6180339887498949
	for sweep := 0; sweep < 30; sweep++ {
		improved := false
		for i := range cuts {
			a := lo
			if i > 0 {
				a = cuts[i-1]
			}
			b := hi
			if i < len(cuts)-1 {
				b = cuts[i+1]
			}
			la, lb := math.Log(a*(1+1e-9)), math.Log(b*(1-1e-9))
			if lb <= la {
				continue
			}
			f := func(lc float64) float64 { return obj.trial(i, math.Exp(lc)) }
			// Coarse grid to escape local flats, then golden-section.
			const gridN = 32
			bestL, bestV := math.Log(cuts[i]), best
			for g := 0; g <= gridN; g++ {
				lc := la + (lb-la)*float64(g)/gridN
				if v := f(lc); v < bestV {
					bestL, bestV = lc, v
				}
			}
			step := (lb - la) / gridN
			ga, gb := math.Max(la, bestL-step), math.Min(lb, bestL+step)
			x1 := gb - phi*(gb-ga)
			x2 := ga + phi*(gb-ga)
			f1, f2 := f(x1), f(x2)
			for it := 0; it < 60; it++ {
				if f1 < f2 {
					gb, x2, f2 = x2, x1, f1
					x1 = gb - phi*(gb-ga)
					f1 = f(x1)
				} else {
					ga, x1, f1 = x1, x2, f2
					x2 = ga + phi*(gb-ga)
					f2 = f(x2)
				}
			}
			lc := (ga + gb) / 2
			if v := f(lc); v < bestV {
				bestL, bestV = lc, v
			}
			if bestV < best-1e-12*math.Abs(best) {
				obj.move(i, math.Exp(bestL))
				best = bestV
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cuts, nil
}

// FairCutoffs returns SITA-U-fair cutoffs for h hosts: every host's expected
// slowdown equals a common value tau. For a given tau the cutoffs are built
// left to right (host i's slowdown is increasing in its upper cutoff), and
// tau itself is then bisected on the sign of the last host's slowdown error.
func FairCutoffs(lambda float64, size dist.Distribution, h int) ([]float64, error) {
	if h < 2 {
		return nil, fmt.Errorf("queueing: FairCutoffs needs h >= 2, got %d", h)
	}
	if h == 2 {
		c, err := FairCutoff(lambda, size)
		if err != nil {
			return nil, err
		}
		return []float64{c}, nil
	}
	lo, hi := supportBounds(size)
	loEdge, hiEdge := dist.NewEdge(size, lo), dist.NewEdge(size, hi)

	// slowdown evaluates host (prev.X, c.X] under total rate lambda.
	slowdown := func(prev, c dist.Edge) float64 {
		_, s, _ := hostSlowdown(lambda, size, prev, c)
		return s
	}

	// cutsForTau builds h-1 cutoffs so hosts 1..h-1 each hit slowdown tau;
	// it reports the last host's slowdown (or +Inf when infeasible).
	cutsForTau := func(tau float64) ([]float64, float64) {
		cuts := make([]float64, h-1)
		prev := loEdge
		for i := 0; i < h-1; i++ {
			a, b := prev.X*(1+1e-12), hi
			if slowdown(prev, hiEdge) < tau {
				// Even absorbing everything stays below tau: saturate.
				cuts[i] = b
				prev = hiEdge
				continue
			}
			for it := 0; it < 100; it++ {
				mid := math.Sqrt(a * b)
				if slowdown(prev, dist.NewEdge(size, mid)) < tau {
					a = mid
				} else {
					b = mid
				}
			}
			cuts[i] = math.Sqrt(a * b)
			prev = dist.NewEdge(size, cuts[i])
		}
		return cuts, slowdown(prev, hiEdge)
	}

	// Bisect tau: as tau grows each host absorbs more jobs, leaving the last
	// host less work, so lastSlowdown(tau) decreases.
	tauLo, tauHi := 1+1e-9, 2.0
	for i := 0; ; i++ {
		_, last := cutsForTau(tauHi)
		if last <= tauHi {
			break
		}
		tauHi *= 4
		if i > 60 {
			return nil, fmt.Errorf("%w: fairness target diverges for h=%d", ErrInfeasible, h)
		}
	}
	for i := 0; i < 100; i++ {
		mid := math.Sqrt(tauLo * tauHi)
		_, last := cutsForTau(mid)
		if last > mid {
			tauLo = mid
		} else {
			tauHi = mid
		}
	}
	cuts, _ := cutsForTau(math.Sqrt(tauLo * tauHi))
	if !strictlyAscending(cuts) {
		return nil, fmt.Errorf("%w: degenerate fair cutoffs %v", ErrInfeasible, cuts)
	}
	if !NewSITA(lambda, size, cuts).Feasible() {
		return nil, fmt.Errorf("%w: fair cutoffs unstable %v", ErrInfeasible, cuts)
	}
	return cuts, nil
}
