package experiment

import (
	"sita/internal/policy"
	"sita/internal/runner"
	"sita/internal/server"
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
	type cell struct {
		load float64
		// spec is nil for the TAGS cell at this load.
		spec *policySpec
	}
	var cells []cell
	for _, load := range cfg.Loads {
		cells = append(cells, cell{load: load})
		for i := range specs {
			cells = append(cells, cell{load, &specs[i]})
		}
	}
	type outcome struct {
		ok           bool
		mean         float64
		waste        float64
		wasteTracked bool
	}
	outs, err := runner.MapOpts(cfg.pool(), cells, func(_ int, cl cell) (outcome, error) {
		s := stream{tr, cl.load, hosts, true, cfg.Seed}
		if cl.spec == nil {
			// TAGS with analytically optimized kill cutoffs.
			lambda := float64(hosts) * cl.load / size.Moment(1)
			cuts, err := tags.OptimalCutoffs(lambda, size, hosts)
			if err != nil {
				return outcome{}, nil
			}
			res := tags.Simulate(s.jobs(), cuts, cfg.Warmup)
			return outcome{true, res.Slowdown.Mean(), res.WasteFraction(), true}, nil
		}
		res, err := cfg.simulate(s, size, *cl.spec, false)
		if err != nil {
			return outcome{}, nil
		}
		return outcome{ok: true, mean: res.Slowdown.Mean()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		if !o.ok {
			continue
		}
		name := "TAGS"
		if cells[i].spec != nil {
			name = cells[i].spec.name
		}
		mean.Add(name, cells[i].load, o.mean)
		if o.wasteTracked {
			waste.Add("TAGS", cells[i].load, o.waste)
		}
	}
	mean.Notes = append(mean.Notes,
		"TAGS knows nothing about job sizes yet tracks size-aware SITA-U; Random and LWL know nothing and pay for it")
	return []Table{*mean, *waste}, nil
}

// compile-time guard: the policies used above satisfy server.Policy.
var _ server.Policy = policy.NewLeastWorkLeft()
