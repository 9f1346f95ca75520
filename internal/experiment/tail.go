package experiment

import (
	"fmt"

	"sita/internal/core"
	"sita/internal/runner"
	"sita/internal/stats"
)

// TailLatency reports the slowdown distribution's upper percentiles per
// policy at load 0.7 — the "predictability" axis the paper captures with
// variance of slowdown, reported the way modern systems papers would.
func TailLatency(cfg Config) ([]Table, error) {
	const load = 0.7
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	size := cfg.Profile.MustSizeDist()
	s := stream{tr, load, 2, true, cfg.Seed}
	t := NewTable("tail-latency", "Slowdown percentiles at load 0.7, 2 hosts (simulation)",
		"percentile", "slowdown")
	percentiles := []float64{0.50, 0.90, 0.95, 0.99, 0.999}
	specs := []policySpec{specRandom(), specLWL(), specSITA(core.SITAE),
		specSITA(core.SITAUOpt), specSITA(core.SITAUFair)}
	outs, err := runner.MapOpts(cfg.pool(), specs, func(_ int, spec policySpec) ([]seriesPoint, error) {
		res, err := cfg.simulate(s, size, spec, true)
		if err != nil {
			return nil, nil
		}
		sample := stats.NewSample(len(res.Records))
		for _, r := range res.Records {
			sample.Add(r.Slowdown())
		}
		pts := make([]seriesPoint, 0, len(percentiles))
		for _, q := range percentiles {
			pts = append(pts, seriesPoint{spec.name, q * 100, sample.Quantile(q)})
		}
		return pts, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pts := range outs {
		for _, p := range pts {
			t.Add(p.series, p.x, p.y)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("percentiles over the last %d%% of jobs; SITA-U compresses the whole distribution, not just the mean",
			int(100*(1-cfg.Warmup))))
	return []Table{*t}, nil
}
