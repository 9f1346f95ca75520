package experiment

import (
	"sita/internal/core"
	"sita/internal/policy"
	"sita/internal/runner"
	"sita/internal/server"
	"sita/internal/streamcache"
)

// SJFComparison quantifies the paper's concluding discussion: favoring
// short jobs (Shortest-Job-First on the central queue) buys mean slowdown
// but "may lead to starvation of certain jobs and undesirable behavior by
// users" — whereas SITA-U-fair gets the mean slowdown benefit while
// guaranteeing equal expected slowdown for short and long jobs. For each
// load the driver reports mean slowdown, the short/long fairness spread
// (max class mean over min, 1 = fair), and the worst single-job slowdown
// (the starvation proxy).
func SJFComparison(cfg Config) ([]Table, error) {
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	size := cfg.Profile.MustSizeDist()
	mean := NewTable("sjf-mean", "Favoring shorts: SJF vs FCFS central queue vs SITA-U-fair (simulation)",
		"system load", "mean slowdown")
	spread := NewTable("sjf-spread", "Short/long fairness spread (1 = fair)",
		"system load", "max/min class slowdown")
	worst := NewTable("sjf-worst", "Worst single-job slowdown (starvation proxy)",
		"system load", "max slowdown")
	const hosts = 2
	names := []string{"Central-Queue (FCFS)", "Central-Queue (SJF)", "SITA-U-fair"}
	// One task per load. Its runs set CentralOrder and SizeClass, which a
	// cell key cannot hold, so they bypass the cell memo.
	perLoad, _ := runner.MapOpts(cfg.pool(), cfg.Loads, func(_ int, load float64) ([]*server.Result, error) { // never fails
		fair, err := core.NewDesign(core.SITAUFair, load, size, hosts)
		if err != nil {
			return nil, nil
		}
		jobs := streamcache.Shared.JobsAtLoad(tr, load, hosts, true, cfg.Seed)
		run := func(pol server.Policy, order server.CentralOrder) *server.Result {
			return server.Run(jobs, server.Config{
				Hosts: hosts, Policy: pol, WarmupFraction: cfg.Warmup,
				CentralOrder: order,
				SizeClass:    fair.Classify,
			})
		}
		return []*server.Result{
			run(policy.NewCentralQueue(), server.CentralFCFS),
			run(policy.NewCentralQueue(), server.CentralSJF),
			run(fair.Policy(), server.CentralFCFS),
		}, nil
	})
	for i, results := range perLoad {
		load := cfg.Loads[i]
		for k, res := range results {
			mean.Add(names[k], load, res.Slowdown.Mean())
			spread.Add(names[k], load, res.Classes.MaxSpread())
			worst.Add(names[k], load, res.Slowdown.Max())
		}
	}
	mean.Notes = append(mean.Notes,
		"SJF improves the mean over FCFS by privileging shorts, but the spread and worst-case rows",
		"show the starvation cost the paper's conclusions warn about; SITA-U-fair avoids the bias")
	return []Table{*mean, *spread, *worst}, nil
}
