package experiment

import (
	"fmt"

	"sita/internal/core"
	"sita/internal/dist"
	"sita/internal/policy"
	"sita/internal/server"
	"sita/internal/sim"
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
	s := stream{tr, load, 2, true, cfg.Seed}
	t := NewTable("estimate-noise", "Estimate-driven policies vs estimate quality, load 0.7 (simulation)",
		"estimate log-sd sigma", "mean slowdown")
	var cells []cell
	for si, sigma := range []float64{0, 0.2, 0.69, 1.1, 1.6} {
		cells = append(cells,
			cell{s, specEstimatedLWL(sigma, 500+uint64(si)), "LWL-by-estimates", sigma},
			cell{s, specEstimatedSITA(core.SITAUFair, sigma, 600+uint64(si)), "SITA-U-fair-by-estimates", sigma})
	}
	addPoints(t, cells, cfg.runCells(cfg.Profile.MustSizeDist(), cells, false), meanSlowdown)
	t.Notes = append(t.Notes,
		"SITA needs the estimate to land on the right side of ONE cutoff, so it degrades far more",
		"slowly with estimate error than policies that sum estimates into backlogs (section 7's point)")
	return []Table{*t}, nil
}

// specEstimatedLWL is Least-Work-Left computed from user runtime
// estimates with lognormal error of log-sd sigma, drawn from RNG stream
// rngStream of the seed. The name carries every parameter.
func specEstimatedLWL(sigma float64, rngStream uint64) policySpec {
	name := fmt.Sprintf("LWL-by-estimates sigma=%v (rng %d)", sigma, rngStream)
	return policySpec{name: name, build: func(_ float64, _ dist.Distribution, _ int, seed uint64) (server.Policy, *core.Design, error) {
		return policy.NewEstimatedLWL(sigma, sim.NewRNG(seed, rngStream)), nil, nil
	}}
}

// specEstimatedSITA is variant v's 2-host SITA design routing by user
// runtime estimates, with estimate error as in specEstimatedLWL.
func specEstimatedSITA(v core.Variant, sigma float64, rngStream uint64) policySpec {
	name := fmt.Sprintf("%v-by-estimates sigma=%v (rng %d)", v, sigma, rngStream)
	return policySpec{name: name, build: func(load float64, size dist.Distribution, hosts int, seed uint64) (server.Policy, *core.Design, error) {
		d, err := core.NewDesign(v, load, size, hosts)
		if err != nil {
			return nil, nil, err
		}
		return policy.NewEstimatedSITA(policy.NewSITA(v.String(), []float64{d.Cutoff}), sigma, sim.NewRNG(seed, rngStream)), nil, nil
	}}
}
