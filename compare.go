package sita

import (
	"fmt"
	"sort"

	"sita/internal/core"
	"sita/internal/server"
)

// PolicyOutcome is one row of a Compare run: a policy's simulated metrics
// and, where a closed form exists, its analytic prediction.
type PolicyOutcome struct {
	Name          string
	MeanSlowdown  float64
	VarSlowdown   float64
	MeanResponse  float64
	MaxSlowdown   float64
	Predicted     float64 // analytic mean slowdown; 0 when no closed form applies
	HasPrediction bool
	// ShortMean and LongMean are the per-class slowdowns for SITA designs
	// (0 for policies without a size cutoff).
	ShortMean, LongMean float64
}

// Compare runs every row of the policy table (SITA designs that are
// infeasible at the load are skipped) on the same re-timed job stream and
// returns the outcomes sorted by mean slowdown (best first). `POST
// /v1/simulate` on cmd/simd reports the same metrics for one policy at a
// time. It returns an error for a nil workload, a load outside (0, 1) or
// fewer than one host.
func Compare(wl *Workload, load float64, hosts int, jobs int, seed uint64) ([]PolicyOutcome, error) {
	if wl == nil {
		return nil, fmt.Errorf("sita: nil workload")
	}
	if err := checkSystem(load, hosts); err != nil {
		return nil, err
	}
	jobList := wl.JobsAtLoad(load, hosts, true, seed)
	if jobs > 0 && jobs < len(jobList) {
		jobList = jobList[:jobs]
	}

	var out []PolicyOutcome
	for _, r := range core.Policies() {
		pol, design, err := r.Build(load, wl.Size, hosts, seed)
		if err != nil {
			continue // infeasible at this load; skip like the paper's plots do
		}
		cfg := server.Config{Hosts: hosts, Policy: pol, WarmupFraction: 0.1}
		if design != nil {
			cfg.SizeClass = design.Classify
		}
		res := server.Run(jobList, cfg)
		o := PolicyOutcome{
			Name:         r.Name,
			MeanSlowdown: res.Slowdown.Mean(),
			VarSlowdown:  res.Slowdown.Variance(),
			MeanResponse: res.Response.Mean(),
			MaxSlowdown:  res.Slowdown.Max(),
		}
		if r.Predict != nil {
			if p, err := r.Predict(load, wl.Size, hosts); err == nil {
				o.Predicted = p
				o.HasPrediction = true
			}
		}
		if design != nil {
			if audit, err := design.Audit(res); err == nil {
				o.ShortMean, o.LongMean = audit.ShortMean, audit.LongMean
			}
		}
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MeanSlowdown < out[j].MeanSlowdown })
	return out, nil
}
