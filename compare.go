package sita

import (
	"fmt"
	"sort"

	"sita/internal/core"
	"sita/internal/policy"
	"sita/internal/server"
	"sita/internal/sim"
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

// Compare runs every task assignment policy on the same re-timed job
// stream and returns the outcomes sorted by mean slowdown (best first).
// examples/policy_comparison prints it as a table; `POST /v1/simulate` on
// cmd/simd reports the same metrics for one policy at a time.
func Compare(wl *Workload, load float64, hosts int, jobs int, seed uint64) ([]PolicyOutcome, error) {
	if wl == nil {
		return nil, fmt.Errorf("sita: nil workload")
	}
	jobList := wl.JobsAtLoad(load, hosts, true, seed)
	if jobs > 0 && jobs < len(jobList) {
		jobList = jobList[:jobs]
	}

	type entry struct {
		name   string
		pol    Policy
		design *Design
	}
	entries := []entry{
		{"Random", policy.NewRandom(sim.NewRNG(seed, 100)), nil},
		{"Round-Robin", policy.NewRoundRobin(), nil},
		{"Shortest-Queue", policy.NewShortestQueue(), nil},
		{"Least-Work-Left", policy.NewLeastWorkLeft(), nil},
		{"Central-Queue", policy.NewCentralQueue(), nil},
	}
	for _, v := range []Variant{core.SITAE, core.SITAUOpt, core.SITAUFair, core.SITARule} {
		d, err := NewDesign(v, load, wl.Size, hosts)
		if err != nil {
			continue // infeasible at this load; skip like the paper's plots do
		}
		entries = append(entries, entry{d.Variant.String(), d.Policy(), d})
	}

	var out []PolicyOutcome
	for _, e := range entries {
		opts := SimOptions{Warmup: 0.1}
		if e.design != nil {
			opts.SizeClass = e.design.Classify
		}
		res := server.Run(jobList, server.Config{
			Hosts:          hosts,
			Policy:         e.pol,
			WarmupFraction: opts.Warmup,
			SizeClass:      opts.SizeClass,
		})
		o := PolicyOutcome{
			Name:         e.name,
			MeanSlowdown: res.Slowdown.Mean(),
			VarSlowdown:  res.Slowdown.Variance(),
			MeanResponse: res.Response.Mean(),
			MaxSlowdown:  res.Slowdown.Max(),
		}
		if p, err := Predict(e.name, load, wl.Size, hosts); err == nil {
			o.Predicted = p
			o.HasPrediction = true
		}
		if e.design != nil {
			if audit, err := e.design.Audit(res); err == nil {
				o.ShortMean, o.LongMean = audit.ShortMean, audit.LongMean
			}
		}
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MeanSlowdown < out[j].MeanSlowdown })
	return out, nil
}
