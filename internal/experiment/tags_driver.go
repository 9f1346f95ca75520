package experiment

import (
	"sita/internal/runner"
	"sita/internal/tags"
)

// TAGSComparison pits TAGS — which needs *no* size information — against
// the size-aware SITA-U-fair and the size-blind Random and Least-Work-Left
// baselines across the load sweep. This quantifies the paper's reference
// [10]: load unbalancing survives even when job durations are unknown,
// at the price of wasted (killed-and-restarted) work.
func TAGSComparison(cfg Config) ([]Table, error) {
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	size := cfg.Profile.MustSizeDist()
	mean := NewTable("tags-mean", "TAGS (unknown sizes) vs size-aware and size-blind policies, 2 hosts (simulation)",
		"system load", "mean slowdown")
	waste := NewTable("tags-waste", "TAGS wasted work", "system load", "wasted-work fraction")
	const hosts = 2
	specs := []policySpec{spec("random"), spec("lwl"), spec("sita-u-fair")}
	var cells []cell
	for _, load := range cfg.Loads {
		for _, spec := range specs {
			cells = append(cells, cell{stream{tr, load, hosts, true, cfg.Seed}, spec, spec.name, load})
		}
	}
	results := cfg.runCells(size, cells, false)
	// TAGS with analytically optimized kill cutoffs, on the same streams;
	// nil where no cutoffs exist.
	tagsResults, _ := runner.MapOpts(cfg.pool(), cfg.Loads, func(_ int, load float64) (*tags.Result, error) { // never fails
		cuts, err := tags.OptimalCutoffs(float64(hosts)*load/size.Moment(1), size, hosts)
		if err != nil {
			return nil, nil
		}
		return tags.Simulate(stream{tr, load, hosts, true, cfg.Seed}.jobs(), cuts, cfg.Warmup), nil
	})
	n := len(specs)
	for i, load := range cfg.Loads {
		// TAGS first at each load, which makes it the first column.
		if res := tagsResults[i]; res != nil {
			mean.Add("TAGS", load, res.Slowdown.Mean())
			waste.Add("TAGS", load, res.WasteFraction())
		}
		addPoints(mean, cells[i*n:(i+1)*n], results[i*n:(i+1)*n], meanSlowdown)
	}
	mean.Notes = append(mean.Notes,
		"TAGS knows nothing about job sizes yet tracks size-aware SITA-U; Random and LWL know nothing and pay for it")
	return []Table{*mean, *waste}, nil
}
