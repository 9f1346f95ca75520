package queueing

import (
	"fmt"
	"math"
	"sort"

	"sita/internal/dist"
)

// SITA analyzes a size-interval task assignment system: h hosts, host i
// serving jobs whose size falls in (cutoff[i-1], cutoff[i]], each host an
// independent FCFS M/G/1 queue (Poisson splitting of a Poisson stream by an
// i.i.d. size attribute yields independent Poisson streams).
type SITA struct {
	Lambda  float64 // total arrival rate into the dispatcher
	Size    dist.Distribution
	Cutoffs []float64 // ascending internal cutoffs; len = hosts-1
}

// NewSITA validates rate and cutoff ordering. Panics if lambda <= 0, size
// is nil, or the cutoffs do not strictly ascend.
func NewSITA(lambda float64, size dist.Distribution, cutoffs []float64) SITA {
	if lambda <= 0 || size == nil {
		panic(fmt.Sprintf("queueing: SITA needs lambda > 0 and size dist, got %v", lambda))
	}
	if !sort.Float64sAreSorted(cutoffs) {
		panic(fmt.Sprintf("queueing: SITA cutoffs must ascend, got %v", cutoffs))
	}
	cp := make([]float64, len(cutoffs))
	copy(cp, cutoffs)
	return SITA{Lambda: lambda, Size: size, Cutoffs: cp}
}

// Hosts reports the number of hosts (len(Cutoffs)+1).
func (s SITA) Hosts() int { return len(s.Cutoffs) + 1 }

// interval reports the size interval (lo, hi] served by host i.
func (s SITA) interval(i int) (lo, hi float64) {
	lo, hi = outerEdges(s.Size)
	if i > 0 {
		lo = s.Cutoffs[i-1]
	}
	if i < len(s.Cutoffs) {
		hi = s.Cutoffs[i]
	}
	return lo, hi
}

// outerEdges reports the lower edge of the first host's size interval and
// the upper edge of the last host's.
func outerEdges(size dist.Distribution) (lo, hi float64) {
	suppLo, suppHi := size.Support()
	lo = suppLo - 1 // strictly below the support so the first interval catches the minimum
	if lo < 0 {
		lo = 0 // job sizes are positive
		if suppLo <= 0 {
			lo = suppLo - 1
		}
	}
	return lo, suppHi
}

// HostMetrics describes one host's analytic behaviour under SITA.
type HostMetrics struct {
	Host         int
	Lo, Hi       float64 // size interval (Lo, Hi]
	JobFraction  float64 // fraction of all jobs routed here
	LoadFraction float64 // fraction of total work routed here
	Load         float64 // utilization of this host
	MeanWait     float64
	MeanSlowdown float64
	VarSlowdown  float64
	MeanResponse float64
	VarResponse  float64
}

// HostAnalysis computes the per-host metrics. Hosts whose size interval has
// (numerically) zero probability mass report zeros with JobFraction 0.
func (s SITA) HostAnalysis() []HostMetrics {
	out := make([]HostMetrics, s.Hosts())
	for i := range out {
		lo, hi := s.interval(i)
		m := HostMetrics{Host: i, Lo: lo, Hi: hi}
		mass := dist.Prob(s.Size, lo, hi)
		if mass <= 1e-15 {
			out[i] = m
			continue
		}
		m.JobFraction = mass
		work := dist.PartialMoment(s.Size, 1, lo, hi)
		m.LoadFraction = work / s.Size.Moment(1)
		m.Load = s.Lambda * work
		q := MG1{Lambda: s.Lambda * mass, Size: dist.NewTruncated(s.Size, lo, hi)}
		m.MeanWait = q.MeanWait()
		m.MeanSlowdown = q.MeanSlowdown()
		m.VarSlowdown = q.SlowdownVariance()
		m.MeanResponse = q.MeanResponse()
		m.VarResponse = q.ResponseVariance()
		out[i] = m
	}
	return out
}

// hostSlowdown evaluates the host serving sizes in (lo, hi] of a SITA
// system with total arrival rate lambda: the fraction of jobs it receives,
// their mean slowdown (1 for an empty host, +Inf when it is unstable) and
// its utilization. It is the objective every cutoff search evaluates, so it
// does only the work a search needs: one Prob and the partial moments
// j = 1, 2, -1, with no allocation. Each value is computed by exactly the
// floating-point operations HostAnalysis and MG1 perform on a Truncated
// size, so frac*slowdown and load are bit-identical to Analyze's per-host
// JobFraction*MeanSlowdown and Load.
func hostSlowdown(lambda float64, size dist.Distribution, lo, hi float64) (frac, slowdown, load float64) {
	mass := dist.Prob(size, lo, hi)
	if mass <= 1e-15 {
		return 0, 1, 0
	}
	work := dist.PartialMoment(size, 1, lo, hi)
	load = lambda * work
	q := lambda * mass // MG1.Lambda
	rho := q * (work / mass)
	if !(rho < 1) { // !MG1.Stable()
		return mass, math.Inf(1), load
	}
	wait := q * (dist.PartialMoment(size, 2, lo, hi) / mass) / (2 * (1 - rho))
	return mass, 1 + wait*(dist.PartialMoment(size, -1, lo, hi)/mass), load
}

// Feasible reports whether every host's utilization is below 1.
func (s SITA) Feasible() bool {
	for _, m := range s.HostAnalysis() {
		if m.Load >= 1 {
			return false
		}
	}
	return true
}

// Report aggregates per-host metrics into job-average system metrics.
type Report struct {
	Hosts         []HostMetrics
	MeanSlowdown  float64
	VarSlowdown   float64
	MeanResponse  float64
	VarResponse   float64
	SystemLoad    float64 // average utilization across hosts
	LoadFractions []float64
}

// Analyze produces the full analytic report for the SITA system.
func (s SITA) Analyze() Report {
	hosts := s.HostAnalysis()
	r := Report{Hosts: hosts, LoadFractions: make([]float64, len(hosts))}
	var es, es2, et, et2, loadSum float64
	for i, m := range hosts {
		r.LoadFractions[i] = m.LoadFraction
		loadSum += m.Load
		if m.JobFraction == 0 {
			continue
		}
		es += m.JobFraction * m.MeanSlowdown
		es2 += m.JobFraction * (m.VarSlowdown + m.MeanSlowdown*m.MeanSlowdown)
		et += m.JobFraction * m.MeanResponse
		et2 += m.JobFraction * (m.VarResponse + m.MeanResponse*m.MeanResponse)
	}
	r.MeanSlowdown = es
	r.VarSlowdown = variance(es, es2)
	r.MeanResponse = et
	r.VarResponse = variance(et, et2)
	r.SystemLoad = loadSum / float64(len(hosts))
	return r
}

// variance is E[X^2] - E[X]^2, reported as +Inf, as MG1's variances are,
// when an unstable host makes the mean +Inf (Inf - Inf would be NaN).
func variance(mean, second float64) float64 {
	if math.IsInf(mean, 1) {
		return math.Inf(1)
	}
	return second - mean*mean
}

// MeanSlowdown is a convenience accessor for Analyze().MeanSlowdown.
func (s SITA) MeanSlowdown() float64 { return s.Analyze().MeanSlowdown }

// RandomSplit analyzes the Random policy: Bernoulli splitting sends each
// host an independent Poisson stream at rate lambda/h with the *unreduced*
// size distribution; every host is an M/G/1 carrying the full service-time
// variability. Panics if h <= 0.
func RandomSplit(lambda float64, size dist.Distribution, h int) MG1 {
	if h <= 0 {
		panic(fmt.Sprintf("queueing: RandomSplit needs h > 0, got %d", h))
	}
	return NewMG1(lambda/float64(h), size)
}

// RoundRobinSplit approximates the Round-Robin policy: each host sees an
// E_h/G/1 queue (Erlang-h interarrivals, Ca^2 = 1/h) with the full size
// distribution. Panics if h <= 0.
func RoundRobinSplit(lambda float64, size dist.Distribution, h int) GG1 {
	if h <= 0 {
		panic(fmt.Sprintf("queueing: RoundRobinSplit needs h > 0, got %d", h))
	}
	return NewGG1(lambda/float64(h), 1/float64(h), size)
}

// LWL models Least-Work-Left (equivalently Central-Queue) as an M/G/h
// queue.
func LWL(lambda float64, size dist.Distribution, h int) MGh {
	return NewMGh(lambda, size, h)
}

// SlowdownOfWait converts a mean waiting time into a mean slowdown for jobs
// drawn from size: E[S] = 1 + E[W]E[1/X]. Exposed for callers composing
// their own approximations.
func SlowdownOfWait(meanWait float64, size dist.Distribution) float64 {
	if math.IsInf(meanWait, 1) {
		return math.Inf(1)
	}
	return 1 + meanWait*size.Moment(-1)
}
