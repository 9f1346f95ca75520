package policy

import (
	"fmt"
	"math"
	"math/rand/v2"

	"sita/internal/hostindex"
	"sita/internal/server"
	"sita/internal/workload"
)

// In practice (paper §1.2), Least-Work-Left is implemented by the *users*:
// each submitted job carries a runtime estimate, and the work left at a
// host is the sum of the estimates of its queued jobs. The policies below
// model that reality: dispatchers that never see true sizes or true
// backlogs, only noisy estimates, bookkeeping their own view of each
// host's queue.

// EstimatedLWL is Least-Work-Left driven entirely by noisy runtime
// estimates: the dispatcher tracks each host's estimated backlog itself
// (crediting the estimate on assignment, draining it with wall-clock time)
// and never consults the true system state. Estimation error is
// multiplicative lognormal: estimate = size * exp(sigma*N(0,1)), the
// standard model for human runtime estimates.
type EstimatedLWL struct {
	sigma float64
	rng   *rand.Rand
	// believed indexes the dispatcher's belief of when each host drains:
	// an incremental argmin over max(believedReadyAt - now, 0), replacing
	// the former O(h) scan over an estReadyAt slice with the same
	// lowest-index-wins pick (ScanEstimatedLWL keeps that scan as the
	// differential oracle).
	believed hostindex.TimedMin
	inited   bool
}

// NewEstimatedLWL builds the policy; sigma = 0 reproduces exact LWL
// behaviour (up to the backlog bookkeeping being belief-based).
// Panics if sigma < 0 or rng is nil.
func NewEstimatedLWL(sigma float64, rng *rand.Rand) *EstimatedLWL {
	if sigma < 0 || rng == nil {
		panic(fmt.Sprintf("policy: estimated LWL needs sigma >= 0 and a generator, got %v", sigma))
	}
	return &EstimatedLWL{sigma: sigma, rng: rng}
}

// Name identifies the policy in reports.
func (p *EstimatedLWL) Name() string {
	return fmt.Sprintf("LWL(est sigma=%.2g)", p.sigma)
}

// Estimate returns a noisy runtime estimate for a job size.
func (p *EstimatedLWL) Estimate(size float64) float64 {
	if p.sigma == 0 {
		return size
	}
	return size * math.Exp(p.sigma*p.rng.NormFloat64())
}

// Assign sends the job to the host with the smallest *believed* backlog
// and credits the job's estimate to that belief. The believed-backlog
// argmin is the same incremental index the server's true-backlog queries
// use, so selection is O(log h); the credited value is computed exactly as
// the old scan did — the belief floors at now before the estimate is added
// — so the belief trajectory, and with it the assignment stream and the
// rng draw order, stay bit-identical.
func (p *EstimatedLWL) Assign(j workload.Job, v server.WorkView) int {
	if !p.inited {
		p.believed.Reset(v.Hosts())
		p.inited = true
	}
	now := j.Arrival
	best := p.believed.ArgMin(now)
	base := now
	if !p.believed.IsZero(best, now) {
		// Believed drain instant is still ahead of now; credit on top of it.
		base = p.believed.Key(best)
	}
	p.believed.SetKey(best, base+p.Estimate(j.Size))
	return best
}

// EstimatedSITA routes by a noisy runtime estimate instead of the true
// size: the continuous version of the short/long misclassification model,
// appropriate when estimates come from a predictor rather than a binary
// user choice.
type EstimatedSITA struct {
	inner *SITA
	sigma float64
	rng   *rand.Rand
}

// NewEstimatedSITA wraps a SITA policy with lognormal estimate noise.
// Panics if inner is nil, sigma < 0, or rng is nil.
func NewEstimatedSITA(inner *SITA, sigma float64, rng *rand.Rand) *EstimatedSITA {
	if inner == nil || rng == nil || sigma < 0 {
		panic("policy: estimated SITA needs an inner policy, sigma >= 0 and a generator")
	}
	return &EstimatedSITA{inner: inner, sigma: sigma, rng: rng}
}

// Name identifies the policy in reports.
func (p *EstimatedSITA) Name() string {
	return fmt.Sprintf("%s(est sigma=%.2g)", p.inner.Name(), p.sigma)
}

// Assign perturbs the size seen by the inner SITA policy.
func (p *EstimatedSITA) Assign(j workload.Job, v server.WorkView) int {
	if p.sigma > 0 {
		j.Size *= math.Exp(p.sigma * p.rng.NormFloat64())
	}
	return p.inner.Assign(j, v)
}
