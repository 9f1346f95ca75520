package experiment

import (
	"math"

	"sita/internal/core"
	"sita/internal/dist"
	"sita/internal/queueing"
)

// analyticModel selects a load-balancing policy's queueing model for the
// analytic figures.
type analyticModel int

const (
	queueingRandom analyticModel = iota
	queueingRoundRobin
	queueingLWL
)

// queueing2MeanSlowdown evaluates a load-balancing policy's analytic mean
// slowdown: Random is Bernoulli splitting into independent M/G/1 queues,
// Round-Robin an E_h/G/1 approximation, Least-Work-Left an M/G/h
// approximation.
func queueing2MeanSlowdown(m analyticModel, lambda float64, size dist.Distribution, hosts int) float64 {
	switch m {
	case queueingRandom:
		return queueing.RandomSplit(lambda, size, hosts).MeanSlowdown()
	case queueingRoundRobin:
		return queueing.RoundRobinSplit(lambda, size, hosts).MeanSlowdown()
	case queueingLWL:
		return queueing.LWL(lambda, size, hosts).MeanSlowdown()
	default:
		//lint:allow panicpolicy invariant: analyticModel is a closed internal enum
		panic("experiment: unknown analytic model")
	}
}

// VarianceAnalysis is the analytic counterpart of the variance-of-slowdown
// panels: Var[S] from the Takacs second-moment formulas for Random and the
// SITA variants (no closed form exists for LWL's variance; the paper also
// omits it analytically).
func VarianceAnalysis(cfg Config) ([]Table, error) {
	size := cfg.Profile.MustSizeDist()
	t := NewTable("variance-analysis", "Variance of slowdown (analysis), 2 hosts",
		"system load", "variance of slowdown")
	const hosts = 2
	for _, load := range cfg.Loads {
		lambda := float64(hosts) * load / size.Moment(1)
		if v := queueing.RandomSplit(lambda, size, hosts).SlowdownVariance(); !math.IsInf(v, 1) {
			t.Add("Random", load, v)
		}
		for _, variant := range []core.Variant{core.SITAE, core.SITAUOpt, core.SITAUFair} {
			d, err := core.NewDesign(variant, load, size, hosts)
			if err != nil {
				continue
			}
			t.Add(variant.String(), load, d.Predicted.VarSlowdown)
		}
	}
	t.Notes = append(t.Notes,
		"uses Takacs' E[W^2] = 2E[W]^2 + lambda E[X^3]/(3(1-rho)) per host; compare with fig2-var/fig4-var")
	return []Table{*t}, nil
}
