package experiment

import (
	"sita/internal/server"
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
	var cells []cell
	for _, spec := range specs {
		for _, load := range cfg.Loads {
			cells = append(cells, cell{stream{tr, load, hosts, true, cfg.Seed}, spec, spec.name, load})
		}
	}
	results := cfg.runCells(size, cells, false)
	addPoints(mean, cells, results, func(r *server.Result) float64 { return r.Response.Mean() })
	addPoints(vari, cells, results, func(r *server.Result) float64 { return r.Response.Variance() })
	mean.Notes = append(mean.Notes,
		"section 3.2: response-time comparisons mirror slowdown but with smaller factors —",
		"response is dominated by the long jobs, slowdown by the short ones")
	return []Table{*mean, *vari}, nil
}
