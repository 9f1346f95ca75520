package experiment

import (
	"fmt"

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
	specs := []policySpec{spec("random"), spec("lwl"), spec("sita-e"),
		spec("sita-u-opt"), spec("sita-u-fair")}
	var cells []cell
	for _, spec := range specs {
		cells = append(cells, cell{s: s, spec: spec, series: spec.name})
	}
	for i, res := range cfg.runCells(size, cells, true) {
		if res == nil {
			continue
		}
		sample := stats.NewSample(len(res.Records))
		for _, r := range res.Records {
			sample.Add(r.Slowdown())
		}
		for _, q := range percentiles {
			t.Add(cells[i].series, q*100, sample.Quantile(q))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("percentiles over the last %d%% of jobs; SITA-U compresses the whole distribution, not just the mean",
			int(100*(1-cfg.Warmup))))
	return []Table{*t}, nil
}
