package experiment

import (
	"sita/internal/core"
	"sita/internal/policy"
	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/streamcache"
)

// EstimateNoise sweeps the quality of user runtime estimates (lognormal
// error with log-sd sigma) at load 0.7 and compares the two
// estimate-driven policies the paper describes deployed systems using
// (§1.2): Least-Work-Left computed from submitted estimates, and
// size-interval routing by estimate. sigma = 0.69 means estimates are
// typically off by a factor of 2; sigma = 1.6 by a factor of 5 — the range
// reported for real user estimates.
func EstimateNoise(cfg Config) ([]Table, error) {
	const load = 0.7
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	size := cfg.Profile.MustSizeDist()
	jobs := streamcache.Shared.JobsAtLoad(tr, load, 2, true, cfg.Seed)
	fair, err := core.NewDesign(core.SITAUFair, load, size, 2)
	if err != nil {
		return nil, err
	}
	t := NewTable("estimate-noise", "Estimate-driven policies vs estimate quality, load 0.7 (simulation)",
		"estimate log-sd sigma", "mean slowdown")
	for si, sigma := range []float64{0, 0.2, 0.69, 1.1, 1.6} {
		cases := []struct {
			name string
			pol  server.Policy
		}{
			{"LWL-by-estimates", policy.NewEstimatedLWL(sigma, sim.NewRNG(cfg.Seed, 500+uint64(si)))},
			{"SITA-U-fair-by-estimates", policy.NewEstimatedSITA(
				policy.NewSITA(fair.Variant.String(), []float64{fair.Cutoff}),
				sigma, sim.NewRNG(cfg.Seed, 600+uint64(si)))},
		}
		for _, c := range cases {
			res := server.Run(jobs, server.Config{Hosts: 2, Policy: c.pol, WarmupFraction: cfg.Warmup})
			t.Add(c.name, sigma, res.Slowdown.Mean())
		}
	}
	t.Notes = append(t.Notes,
		"SITA needs the estimate to land on the right side of ONE cutoff, so it degrades far more",
		"slowly with estimate error than policies that sum estimates into backlogs (section 7's point)")
	return []Table{*t}, nil
}
