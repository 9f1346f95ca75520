package experiment

import (
	"sita/internal/runner"
)

// ResponseTime reports mean response time (seconds) per policy across the
// load sweep — the paper's secondary metric ("the same comparisons with
// respect to mean response time are very similar; for system loads greater
// than 0.5, SITA-E outperforms Least-Work-Left by factors of 2-3", §3.2).
func ResponseTime(cfg Config) ([]Table, error) {
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	size := cfg.Profile.MustSizeDist()
	mean := NewTable("response-mean", "Mean response time, 2 hosts (simulation)",
		"system load", "mean response (s)")
	vari := NewTable("response-var", "Variance of response time, 2 hosts (simulation)",
		"system load", "variance of response")
	const hosts = 2
	specs := []policySpec{spec("random"), spec("lwl"), spec("sita-e"),
		spec("sita-u-opt"), spec("sita-u-fair")}
	type cell struct {
		spec policySpec
		load float64
	}
	var cells []cell
	for _, spec := range specs {
		for _, load := range cfg.Loads {
			cells = append(cells, cell{spec, load})
		}
	}
	type outcome struct {
		ok         bool
		mean, vari float64
	}
	outs, err := runner.MapOpts(cfg.pool(), cells, func(_ int, cl cell) (outcome, error) {
		res, err := cfg.simulate(stream{tr, cl.load, hosts, true, cfg.Seed}, size, cl.spec, false)
		if err != nil {
			return outcome{}, nil
		}
		return outcome{true, res.Response.Mean(), res.Response.Variance()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		if o.ok {
			mean.Add(cells[i].spec.name, cells[i].load, o.mean)
			vari.Add(cells[i].spec.name, cells[i].load, o.vari)
		}
	}
	mean.Notes = append(mean.Notes,
		"section 3.2: response-time comparisons mirror slowdown but with smaller factors —",
		"response is dominated by the long jobs, slowdown by the short ones")
	return []Table{*mean, *vari}, nil
}
