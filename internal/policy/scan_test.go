package policy

import (
	"fmt"
	"math"

	"sita/internal/server"
	"sita/internal/workload"
)

// Linear-scan reference implementations of the indexed policies. Each one
// is the pre-index O(h) code, verbatim, kept as the oracle of the
// differential tests, which prove the indexed policies reproduce these
// scans' assignment streams bit-for-bit (including lowest-index
// tie-breaking).

// ScanShortestQueue is Shortest-Queue by an O(h) NumJobs scan.
type ScanShortestQueue struct{}

// NewScanShortestQueue builds the reference policy.
func NewScanShortestQueue() ScanShortestQueue { return ScanShortestQueue{} }

// Name identifies the policy in reports.
func (ScanShortestQueue) Name() string { return "Shortest-Queue/scan" }

// Assign picks the host with the fewest jobs, ties to the lowest index.
func (ScanShortestQueue) Assign(_ workload.Job, v server.View) int {
	best, bestN := 0, v.NumJobs(0)
	for i := 1; i < v.Hosts(); i++ {
		if n := v.NumJobs(i); n < bestN {
			best, bestN = i, n
		}
	}
	return best
}

// ScanLeastWorkLeft is Least-Work-Left by an O(h) WorkLeft scan.
type ScanLeastWorkLeft struct{}

// NewScanLeastWorkLeft builds the reference policy.
func NewScanLeastWorkLeft() ScanLeastWorkLeft { return ScanLeastWorkLeft{} }

// Name identifies the policy in reports.
func (ScanLeastWorkLeft) Name() string { return "Least-Work-Left/scan" }

// Assign picks the host with minimal backlog, ties to the lowest index.
func (ScanLeastWorkLeft) Assign(_ workload.Job, v server.View) int {
	best, bestW := 0, v.WorkLeft(0)
	for i := 1; i < v.Hosts(); i++ {
		if w := v.WorkLeft(i); w < bestW {
			best, bestW = i, w
		}
	}
	return best
}

// ScanCentralQueue is Central-Queue by an O(h) Idle scan.
type ScanCentralQueue struct{}

// NewScanCentralQueue builds the reference policy.
func NewScanCentralQueue() ScanCentralQueue { return ScanCentralQueue{} }

// Name identifies the policy in reports.
func (ScanCentralQueue) Name() string { return "Central-Queue/scan" }

// Assign sends the job to the lowest-indexed idle host, else holds it.
func (ScanCentralQueue) Assign(_ workload.Job, v server.View) int {
	for i := 0; i < v.Hosts(); i++ {
		if v.Idle(i) {
			return i
		}
	}
	return server.Central
}

// ScanGroupedSITA is GroupedSITA with the within-group LWL done by an
// O(group) WorkLeft scan.
type ScanGroupedSITA struct {
	cutoff     float64
	shortHosts int
}

// NewScanGroupedSITA builds the reference policy.
// Panics if shortHosts < 1.
func NewScanGroupedSITA(cutoff float64, shortHosts int) *ScanGroupedSITA {
	if shortHosts <= 0 {
		panic(fmt.Sprintf("policy: grouped SITA needs at least one short host, got %d", shortHosts))
	}
	return &ScanGroupedSITA{cutoff: cutoff, shortHosts: shortHosts}
}

// Name identifies the policy in reports.
func (p *ScanGroupedSITA) Name() string { return "SITA+LWL/scan" }

// Assign classifies by the cutoff, then scans the group for minimal backlog.
func (p *ScanGroupedSITA) Assign(j workload.Job, v server.View) int {
	lo, hi := 0, p.shortHosts
	if j.Size > p.cutoff {
		lo, hi = p.shortHosts, v.Hosts()
	}
	if lo >= hi {
		//lint:allow panicpolicy invariant: NewScanGroupedSITA validates shortHosts, so an empty group means the view shrank mid-run
		panic(fmt.Sprintf("policy: grouped SITA group [%d, %d) empty with %d hosts", lo, hi, v.Hosts()))
	}
	best, bestW := lo, v.WorkLeft(lo)
	for i := lo + 1; i < hi; i++ {
		if w := v.WorkLeft(i); w < bestW {
			best, bestW = i, w
		}
	}
	return best
}

// ScanEstimatedLWL is EstimatedLWL with the believed-backlog argmin done
// by an O(h) scan over the dispatcher's own bookkeeping — the pre-index
// implementation, kept as the differential oracle for EstimatedLWL.
type ScanEstimatedLWL struct {
	inner *EstimatedLWL
	// estReadyAt[h] is the dispatcher's belief of when host h drains.
	estReadyAt []float64
}

// NewScanEstimatedLWL builds the reference policy around a fresh
// EstimatedLWL used only for its Estimate stream (same sigma, same rng).
// Panics if inner is nil.
func NewScanEstimatedLWL(inner *EstimatedLWL) *ScanEstimatedLWL {
	if inner == nil {
		panic("policy: scan estimated LWL needs an inner policy")
	}
	return &ScanEstimatedLWL{inner: inner}
}

// Name identifies the policy in reports.
func (p *ScanEstimatedLWL) Name() string { return p.inner.Name() + "/scan" }

// Assign sends the job to the host with the smallest believed backlog and
// credits the job's estimate to that belief.
func (p *ScanEstimatedLWL) Assign(j workload.Job, v server.View) int {
	if p.estReadyAt == nil {
		p.estReadyAt = make([]float64, v.Hosts())
	}
	now := j.Arrival
	best, bestLeft := 0, math.Inf(1)
	for i := range p.estReadyAt {
		left := p.estReadyAt[i] - now
		if left < 0 {
			left = 0
		}
		if left < bestLeft {
			best, bestLeft = i, left
		}
	}
	if p.estReadyAt[best] < now {
		p.estReadyAt[best] = now
	}
	p.estReadyAt[best] += p.inner.Estimate(j.Size)
	return best
}
