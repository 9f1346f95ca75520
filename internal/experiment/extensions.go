package experiment

import (
	"fmt"
	"math"

	"sita/internal/core"
	"sita/internal/dist"
	"sita/internal/policy"
	"sita/internal/queueing"
	"sita/internal/runner"
	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/workload"
)

// The drivers below go beyond the paper's printed figures: ablations and
// sensitivity studies that the paper's text motivates (sections 4.3, 5, 6,
// 7) but does not plot.

// CutoffSensitivity sweeps the SITA cutoff across its feasible range at a
// fixed load and reports analytic mean slowdown — the "what appear to just
// be parameters can have a greater effect than anything else" observation
// of the conclusions, made quantitative.
func CutoffSensitivity(cfg Config) ([]Table, error) {
	size := cfg.Profile.MustSizeDist()
	t := NewTable("cutoff-sensitivity", "Mean slowdown vs SITA cutoff (analysis)",
		"cutoff (s)", "mean slowdown")
	for _, load := range []float64{0.5, 0.7} {
		lambda := 2 * load / size.Moment(1)
		cLo, cHi, err := queueing.FeasibleCutoffRange(lambda, size)
		if err != nil {
			continue
		}
		name := seriesForLoad("load", load)
		logLo, logHi := math.Log(cLo), math.Log(cHi)
		const n = 40
		for i := 0; i <= n; i++ {
			c := math.Exp(logLo + (logHi-logLo)*float64(i)/n)
			r := queueing.NewSITA(lambda, size, []float64{c}).Analyze()
			unstable := false
			for _, h := range r.Hosts {
				if h.Load >= 1 {
					unstable = true
				}
			}
			if unstable {
				continue
			}
			t.Add(name, c, r.MeanSlowdown)
		}
	}
	t.Notes = append(t.Notes,
		"the slowdown-vs-cutoff curve is steep around SITA-E's cutoff and flat near the optimum")
	return []Table{*t}, nil
}

// Misclassification sweeps the probability that a user mislabels a job as
// short/long (section 7) and reports simulated mean slowdown of SITA-U-fair
// under the 2-host system at load 0.7.
func Misclassification(cfg Config) ([]Table, error) {
	const load = 0.7
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	size := cfg.Profile.MustSizeDist()
	t := NewTable("misclassification", "SITA-U-fair under user misclassification, load 0.7 (simulation)",
		"misclassification probability", "mean slowdown")
	s := stream{tr, load, 2, true, cfg.Seed}
	modes := []struct {
		name string
		mode policy.MisclassifyMode
	}{
		{"shorts claim long", policy.FlipShortOnly},
		{"longs claim short", policy.FlipLongOnly},
		{"both directions", policy.FlipBoth},
	}
	var cells []cell
	for _, p := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4} {
		for mi, m := range modes {
			// p = 0 is plain SITA-U-fair, whichever direction.
			sp := spec("sita-u-fair")
			if p > 0 {
				sp = specMisclassified(core.SITAUFair, m.name, m.mode, p, 200+uint64(mi)*17+uint64(p*1000))
			}
			cells = append(cells, cell{s, sp, m.name, p})
		}
	}
	addPoints(t, cells, cfg.runCells(size, cells, false), meanSlowdown)
	t.Notes = append(t.Notes,
		"section 7's claim, quantified: a misrouted short job hurts only itself - but its slowdown on the",
		"near-saturated long host is astronomical, so even rare errors dominate the mean; misrouted longs",
		"add modest load to the short host and degrade things far more gently. The paper's incentive",
		"argument holds: the misclassified job itself pays by far the largest price")
	return []Table{*t}, nil
}

// BurstinessSweep fixes the load at 0.7 and sweeps the interarrival-gap
// squared coefficient of variation, quantifying section 6's claim that
// arrival variability eventually dominates and favors Least-Work-Left.
func BurstinessSweep(cfg Config) ([]Table, error) {
	const load = 0.7
	size := cfg.Profile.MustSizeDist()
	t := NewTable("burstiness", "Policies vs arrival burstiness at load 0.7 (simulation)",
		"interarrival gap C^2", "mean slowdown")
	n := cfg.jobsPerPoint()
	dFair, err := core.NewDesign(core.SITAUFair, load, size, 2)
	if err != nil {
		return nil, err
	}
	// One cell per SCV level: its stream is generated once and both
	// policies run on it. The streams have no trace identity, so these
	// runs stay outside the cell memo; no other driver shares them.
	scvs := []float64{1, 4, 16, 64, 256}
	outs, err := runner.MapOpts(cfg.pool(), scvs, func(_ int, scv float64) ([2]float64, error) {
		jobs := burstyJobs(n, load, 2, size, scv, cfg.Seed)
		var means [2]float64
		for i, pol := range []server.Policy{
			policy.NewLeastWorkLeft(),
			policy.NewSITA("SITA-U-fair", []float64{dFair.Cutoff}),
		} {
			res := server.Run(jobs, server.Config{Hosts: 2, Policy: pol, WarmupFraction: cfg.Warmup})
			means[i] = res.Slowdown.Mean()
		}
		return means, nil
	})
	if err != nil {
		return nil, err
	}
	for i, means := range outs {
		t.Add("Least-Work-Left", scvs[i], means[0])
		t.Add("SITA-U-fair", scvs[i], means[1])
	}
	t.Notes = append(t.Notes,
		"SITA reduces size variability but not arrival variability; LWL gains ground as gaps get burstier")
	return []Table{*t}, nil
}

// MultiCutoffAblation compares the paper's grouped 2-cutoff construction
// for h > 2 hosts (section 5) against the full h-1-cutoff SITA the paper
// deems too expensive to search — quantifying what the shortcut costs.
func MultiCutoffAblation(cfg Config) ([]Table, error) {
	const load = 0.7
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	size := cfg.Profile.MustSizeDist()
	t := NewTable("multi-cutoff", "Grouped 2-cutoff SITA vs full multi-cutoff SITA, load 0.7 (simulation)",
		"hosts", "mean slowdown")
	variants := []struct {
		name string
		spec policySpec
	}{
		{"grouped 2-cutoff", spec("sita-u-opt")},
		{"full multi-cutoff", specFullSITA(core.SITAUOpt)},
		{"multi-cutoff equal-load", specFullSITA(core.SITAE)},
	}
	var cells []cell
	for _, h := range []int{4, 6, 8} {
		for _, v := range variants {
			// Figure 6's streams: the grouped cells are Figure 6's own.
			cells = append(cells, cell{stream{tr, load, h, true, cfg.Seed + uint64(h)}, v.spec, v.name, float64(h)})
		}
	}
	addPoints(t, cells, cfg.runCells(size, cells, false), meanSlowdown)
	return []Table{*t}, nil
}

// FairnessProfile reports mean slowdown per job-size decile for SITA-E,
// SITA-U-fair and Least-Work-Left at load 0.7 — making the fairness claim
// of section 4.3 visible across the whole size spectrum rather than just
// the short/long split.
func FairnessProfile(cfg Config) ([]Table, error) {
	const load = 0.7
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	size := cfg.Profile.MustSizeDist()
	// Decile boundaries of the size distribution.
	bounds := make([]float64, 9)
	for i := range bounds {
		bounds[i] = size.Quantile(float64(i+1) / 10)
	}
	s := stream{tr, load, 2, true, cfg.Seed}
	t := NewTable("fairness-profile", "Mean slowdown by job-size decile, load 0.7 (simulation)",
		"size decile (1=smallest)", "mean slowdown")
	// One cell per policy, each adding its decile profile, then the
	// Processor-Sharing reference (footnote 1's "ultimately fair" ideal,
	// unattainable under run-to-completion) with random splitting.
	specs := []policySpec{spec("lwl"), spec("sita-e"), spec("sita-u-fair")}
	var cells []cell
	for _, spec := range specs {
		cells = append(cells, cell{s: s, spec: spec, series: spec.name})
	}
	addDeciles := func(series string, res *server.Result) {
		tally := stats.NewDecileTally(bounds)
		for _, r := range res.Records {
			tally.Add(r.Size, r.Slowdown())
		}
		for c := 0; c < tally.Classes(); c++ {
			if tally.Count(c) > 0 {
				t.Add(series, float64(c+1), tally.Mean(c))
			}
		}
	}
	for i, res := range cfg.runCells(size, cells, true) {
		if res != nil {
			addDeciles(cells[i].series, res)
		}
	}
	addDeciles("PS ideal (reference)", server.RunPS(s.jobs(), server.Config{Hosts: 2,
		Policy: policy.NewRandom(sim.NewRNG(cfg.Seed, 400)), WarmupFraction: cfg.Warmup,
		KeepRecords: true}))
	t.Notes = append(t.Notes,
		"SITA-U-fair flattens expected slowdown across deciles; balancing policies skew against small jobs;",
		"the PS line is footnote 1's perfectly-fair (but non-run-to-completion) ideal")
	return []Table{*t}, nil
}

// specMisclassified is variant v's 2-host SITA design behind users who
// mislabel jobs with probability p in the given direction, drawing from
// RNG stream rngStream of the seed. The name carries every parameter.
func specMisclassified(v core.Variant, modeName string, mode policy.MisclassifyMode, p float64, rngStream uint64) policySpec {
	name := fmt.Sprintf("%v, %s p=%v (rng %d)", v, modeName, p, rngStream)
	return policySpec{name: name, build: func(load float64, size dist.Distribution, hosts int, seed uint64) (server.Policy, *core.Design, error) {
		d, err := core.NewDesign(v, load, size, hosts)
		if err != nil {
			return nil, nil, err
		}
		// A design's policy is SITA or grouped SITA, both work policies.
		return policy.NewMisclassifyMode(d.Policy().(server.WorkPolicy), d.Cutoff, p, mode, sim.NewRNG(seed, rngStream)), nil, nil
	}}
}

func seriesForLoad(prefix string, load float64) string {
	return prefix + "=" + formatCell(load)
}

// burstyJobs builds a job stream with lognormal interarrival gaps of the
// given squared coefficient of variation at the target load.
func burstyJobs(n int, load float64, hosts int, size dist.BoundedPareto, scv float64, seed uint64) []workload.Job {
	meanGap := size.Moment(1) / (load * float64(hosts))
	var arr workload.ArrivalProcess
	if scv <= 1 {
		arr = workload.NewPoisson(1 / meanGap)
	} else {
		arr = workload.Renewal{Gap: dist.NewLognormalFromMeanSCV(meanGap, scv)}
	}
	src := workload.NewSource(arr, workload.DistSizes{D: size},
		sim.NewRNG(seed, 300+uint64(scv)), sim.NewRNG(seed, 301))
	return src.Take(n)
}
