// Package policy implements every task assignment policy the paper
// evaluates: the load-balancing family (Random, Round-Robin,
// Shortest-Queue, Least-Work-Left, Central-Queue, SITA-E) and the
// load-unbalancing family (SITA-U-opt, SITA-U-fair), plus the grouped
// SITA+LWL hybrid the paper uses for systems with many hosts (section 5)
// and a misclassification wrapper for the user-estimate sensitivity
// analysis (section 7).
//
// Policies are stateful per run where needed (Round-Robin's counter,
// Random's generator); build a fresh policy per simulation — policies are
// not safe for concurrent use and must not be shared across cells.
// Dispatch decisions are deterministic: they depend only on the policy's
// own state and the host snapshot it is shown, with randomness confined
// to the sim.RNG stream injected at construction. The indexed variants
// keep their hostindex structures in reusable storage, so host selection
// stays allocation-free on the simulation hot path.
package policy

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"sita/internal/server"
	"sita/internal/workload"
)

// Random assigns each job to a host chosen uniformly at random: Bernoulli
// splitting, which equalizes the expected (not actual) number of jobs per
// host.
type Random struct {
	rng *rand.Rand
}

// NewRandom builds a Random policy with its own generator.
// Panics if rng is nil.
func NewRandom(rng *rand.Rand) *Random {
	if rng == nil {
		panic("policy: random needs a generator")
	}
	return &Random{rng: rng}
}

// Name identifies the policy in reports.
func (*Random) Name() string { return "Random" }

// Assign picks a uniform host.
func (p *Random) Assign(_ workload.Job, v server.View) int {
	return p.rng.IntN(v.Hosts())
}

// WorkOnly reports that Assign reads no system state at all (only the
// host count and the policy's own generator), so server.Run may take the
// direct-recurrence path.
func (*Random) WorkOnly() bool { return true }

// RoundRobin assigns the i-th arriving job to host i mod h, equalizing the
// expected number of jobs per host with less interarrival variability than
// Random.
type RoundRobin struct {
	next int
}

// NewRoundRobin builds a RoundRobin policy starting at host 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name identifies the policy in reports.
func (*RoundRobin) Name() string { return "Round-Robin" }

// Assign cycles through the hosts.
func (p *RoundRobin) Assign(_ workload.Job, v server.View) int {
	idx := p.next
	p.next = (p.next + 1) % v.Hosts()
	return idx
}

// WorkOnly reports that Assign reads no system state at all (only the
// host count and the policy's own counter), so server.Run may take the
// direct-recurrence path.
func (*RoundRobin) WorkOnly() bool { return true }

// ShortestQueue sends each job to the host currently holding the fewest
// jobs, equalizing the instantaneous number of jobs. Ties break to the
// lowest index.
type ShortestQueue struct{}

// NewShortestQueue builds the policy.
func NewShortestQueue() ShortestQueue { return ShortestQueue{} }

// Name identifies the policy in reports.
func (ShortestQueue) Name() string { return "Shortest-Queue" }

// Assign picks the host with the fewest jobs via the view's incremental
// jobs index — O(log h) instead of an O(h) scan, same pick (the index
// breaks exact ties to the lowest host, as the scan did).
func (ShortestQueue) Assign(_ workload.Job, v server.View) int {
	return v.MinJobsHost()
}

// LeastWorkLeft sends each job to the host with the least unfinished work —
// the closest a push policy comes to instantaneous load balance. Requires
// (an estimate of) job sizes to account the backlog. Ties break to the
// lowest index.
type LeastWorkLeft struct{}

// NewLeastWorkLeft builds the policy.
func NewLeastWorkLeft() LeastWorkLeft { return LeastWorkLeft{} }

// Name identifies the policy in reports.
func (LeastWorkLeft) Name() string { return "Least-Work-Left" }

// Assign picks the host with minimal backlog via the view's incremental
// work index — O(log h) instead of an O(h) scan, same pick including the
// lowest-index tie-break among drained hosts.
func (LeastWorkLeft) Assign(_ workload.Job, v server.View) int {
	return v.MinWorkHost()
}

// WorkOnly reports that Assign reads only host work (MinWorkHost), which
// the direct recurrence answers from its per-host clocks, so server.Run
// may take the direct-recurrence path.
func (LeastWorkLeft) WorkOnly() bool { return true }

// CentralQueue holds every job in a FCFS queue at the dispatcher; a host
// pulls the next job the moment it goes idle. Provably equivalent to
// Least-Work-Left for any job sequence (Harchol-Balter, Crovella, Murta
// 1999); the property test in this package checks exactly that.
type CentralQueue struct{}

// NewCentralQueue builds the policy.
func NewCentralQueue() CentralQueue { return CentralQueue{} }

// Name identifies the policy in reports.
func (CentralQueue) Name() string { return "Central-Queue" }

// Assign sends the job to an idle host when one exists, otherwise holds it
// centrally. The view's idle freelist answers in O(1) amortized; the old
// O(h) scan picked the same lowest-indexed idle host.
func (CentralQueue) Assign(_ workload.Job, v server.View) int {
	if i := v.NextIdleHost(); i >= 0 {
		return i
	}
	return server.Central
}

// SITA is Size Interval Task Assignment: host i serves jobs whose size
// falls in (cutoffs[i-1], cutoffs[i]]. The cutoff vector determines the
// variant: equal-load cutoffs give SITA-E, slowdown-minimizing cutoffs give
// SITA-U-opt, fairness cutoffs give SITA-U-fair (see internal/queueing and
// internal/core for the searches).
type SITA struct {
	label   string
	cutoffs []float64
}

// NewSITA builds a size-interval policy with the given display label and
// ascending cutoffs (len = hosts-1). Panics if the cutoffs do not ascend.
func NewSITA(label string, cutoffs []float64) *SITA {
	if !sort.Float64sAreSorted(cutoffs) {
		panic(fmt.Sprintf("policy: SITA cutoffs must ascend, got %v", cutoffs))
	}
	cp := make([]float64, len(cutoffs))
	copy(cp, cutoffs)
	return &SITA{label: label, cutoffs: cp}
}

// Name identifies the policy in reports.
func (p *SITA) Name() string { return p.label }

// Cutoffs returns a copy of the policy's cutoffs.
func (p *SITA) Cutoffs() []float64 {
	cp := make([]float64, len(p.cutoffs))
	copy(cp, p.cutoffs)
	return cp
}

// Assign routes by size interval. SearchFloat64s returns the first cutoff
// >= size, so a size exactly on a cutoff lands in the lower interval,
// matching the (lo, hi] convention of the analysis.
func (p *SITA) Assign(j workload.Job, v server.View) int {
	idx := sort.SearchFloat64s(p.cutoffs, j.Size)
	if idx >= v.Hosts() {
		return v.Hosts() - 1
	}
	return idx
}

// WorkOnly reports that Assign reads no system state at all (only the
// job size, the fixed cutoffs and the host count), so server.Run may take
// the direct-recurrence path.
func (*SITA) WorkOnly() bool { return true }

// GroupedSITA is the paper's section-5 construction for systems with many
// hosts: hosts are divided into a short group and a long group, the 2-host
// cutoff classifies each job as short or long, and Least-Work-Left runs
// within the chosen group.
type GroupedSITA struct {
	label      string
	cutoff     float64
	shortHosts int // hosts [0, shortHosts) serve short jobs
}

// NewGroupedSITA builds the hybrid policy; shortHosts of the system's hosts
// form the short group. Panics if shortHosts < 1.
func NewGroupedSITA(label string, cutoff float64, shortHosts int) *GroupedSITA {
	if shortHosts <= 0 {
		panic(fmt.Sprintf("policy: grouped SITA needs at least one short host, got %d", shortHosts))
	}
	return &GroupedSITA{label: label, cutoff: cutoff, shortHosts: shortHosts}
}

// Name identifies the policy in reports.
func (p *GroupedSITA) Name() string { return p.label }

// Assign classifies by the 2-host cutoff, then runs LWL within the group.
func (p *GroupedSITA) Assign(j workload.Job, v server.View) int {
	lo, hi := 0, p.shortHosts
	if j.Size > p.cutoff {
		lo, hi = p.shortHosts, v.Hosts()
	}
	if lo >= hi {
		//lint:allow panicpolicy invariant: NewGroupedSITA validates shortHosts, so an empty group means the view shrank mid-run
		panic(fmt.Sprintf("policy: grouped SITA group [%d, %d) empty with %d hosts", lo, hi, v.Hosts()))
	}
	return v.MinWorkHostIn(lo, hi)
}

// WorkOnly reports that Assign reads only host work (MinWorkHostIn, plus
// the host count), so server.Run may take the direct-recurrence path.
func (*GroupedSITA) WorkOnly() bool { return true }

// Misclassify wraps a size-based policy to model imperfect user runtime
// estimates (section 7): with probability P the job is presented to the
// inner policy with a size drawn from the opposite side of the cutoff, so
// it is routed as if the user misjudged short vs long.
type Misclassify struct {
	inner  server.Policy
	cutoff float64
	p      float64
	mode   MisclassifyMode
	rng    *rand.Rand
}

// MisclassifyMode selects which direction of estimation error the wrapper
// injects. The two directions are not symmetric: a short job claiming to be
// long only hurts itself (it waits on the long host but adds negligible
// work), while a long job claiming to be short drags an elephant onto the
// short host and delays thousands of small jobs behind it (section 7).
type MisclassifyMode int

// Misclassification directions.
const (
	// FlipBoth flips every job's class with probability p.
	FlipBoth MisclassifyMode = iota
	// FlipShortOnly makes only short jobs claim to be long.
	FlipShortOnly
	// FlipLongOnly makes only long jobs claim to be short.
	FlipLongOnly
)

// NewMisclassify wraps inner; cutoff separates short from long, p is the
// per-job misclassification probability, applied in both directions.
func NewMisclassify(inner server.Policy, cutoff, p float64, rng *rand.Rand) *Misclassify {
	return NewMisclassifyMode(inner, cutoff, p, FlipBoth, rng)
}

// NewMisclassifyMode wraps inner with a directional error model.
// Panics if inner or rng is nil, or p is outside [0, 1].
func NewMisclassifyMode(inner server.Policy, cutoff, p float64, mode MisclassifyMode, rng *rand.Rand) *Misclassify {
	if inner == nil || rng == nil {
		panic("policy: misclassify needs an inner policy and a generator")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("policy: misclassification probability %v outside [0,1]", p))
	}
	return &Misclassify{inner: inner, cutoff: cutoff, p: p, mode: mode, rng: rng}
}

// Name identifies the policy in reports.
func (m *Misclassify) Name() string {
	return fmt.Sprintf("%s+err%.0f%%", m.inner.Name(), m.p*100)
}

// Assign flips the job's apparent class with probability P (subject to the
// direction mode) before delegating.
func (m *Misclassify) Assign(j workload.Job, v server.View) int {
	short := j.Size <= m.cutoff
	eligible := m.mode == FlipBoth ||
		(m.mode == FlipShortOnly && short) ||
		(m.mode == FlipLongOnly && !short)
	if eligible && m.rng.Float64() < m.p {
		lied := j
		if short {
			lied.Size = m.cutoff * 2 // claim "long"
		} else {
			lied.Size = m.cutoff / 2 // claim "short"
		}
		return m.inner.Assign(lied, v)
	}
	return m.inner.Assign(j, v)
}

// WorkOnly forwards the inner policy's capability: the wrapper itself
// adds only a size perturbation and an rng draw, both state-blind, so the
// wrapped pair is work-only exactly when the inner policy is. Wrapping
// SITA, Least-Work-Left or grouped SITA yields true; wrapping
// Shortest-Queue yields false.
func (m *Misclassify) WorkOnly() bool { return server.IsWorkOnly(m.inner) }
