package experiment

import (
	"math"

	"sita/internal/core"
	"sita/internal/queueing"
)

// predictSweep tabulates the closed-form mean slowdown on 2 hosts of the
// policy-table rows with the given keys across the load sweep. A load
// where a row has no prediction (an infeasible SITA design) has no point.
func (c Config) predictSweep(id, title string, keys ...string) []Table {
	size := c.Profile.MustSizeDist()
	t := NewTable(id, title, "system load", "mean slowdown")
	for _, load := range c.Loads {
		for _, key := range keys {
			r := policyRow(key)
			if m, err := r.Predict(load, size, 2); err == nil {
				t.Add(r.Name, load, m)
			}
		}
	}
	return []Table{*t}
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
