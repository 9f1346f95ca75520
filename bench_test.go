package sita

import (
	"fmt"
	"testing"

	"sita/internal/core"
	"sita/internal/experiment"
	"sita/internal/policy"
	"sita/internal/queueing"
	"sita/internal/server"
	"sita/internal/trace"
)

// The benchmarks below regenerate every table and figure of the paper at a
// reduced-but-representative scale (the paper-scale runs are driven by
// cmd/sweep). One benchmark per experiment: BenchmarkTable1,
// BenchmarkFigure2 ... BenchmarkFigure13, plus the ablation drivers and
// micro-benchmarks of the hot paths.

// benchConfig trims the trace so a full -bench=. run finishes in minutes.
func benchConfig() experiment.Config {
	cfg := experiment.Default()
	cfg.Jobs = 20000
	return cfg
}

func benchExperiment(b *testing.B, id string) {
	cfg := benchConfig()
	driver := experiment.Drivers()[id]
	if driver == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Every run simulates its cells and searches its cutoffs, as a
		// fresh process would, instead of answering from the last run.
		experiment.ClearMemos()
		tables, err := driver(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no output tables")
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFigure2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }

func BenchmarkCutoffSensitivity(b *testing.B) { benchExperiment(b, "cutoff-sensitivity") }
func BenchmarkMisclassification(b *testing.B) { benchExperiment(b, "misclassification") }
func BenchmarkBurstiness(b *testing.B)        { benchExperiment(b, "burstiness") }
func BenchmarkMultiCutoff(b *testing.B)       { benchExperiment(b, "multi-cutoff") }
func BenchmarkFairnessProfile(b *testing.B)   { benchExperiment(b, "fairness-profile") }

// BenchmarkSimulatorThroughput measures raw simulated jobs/second per
// policy — the cost of one dispatch + service cycle through the event
// engine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	wl, err := LoadWorkload("psc-c90", 9)
	if err != nil {
		b.Fatal(err)
	}
	jobs := wl.JobsAtLoad(0.7, 4, true, 9)
	design, err := NewDesign(SITAUFair, 0.7, wl.Size, 4)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		build func() Policy
	}{
		{"Random", func() Policy { return policy.NewRandom(NewRNG(9, 50)) }},
		{"LeastWorkLeft", func() Policy { return policy.NewLeastWorkLeft() }},
		{"CentralQueue", func() Policy { return policy.NewCentralQueue() }},
		{"SITA-U-fair", func() Policy { return design.Policy() }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := server.Run(jobs, server.Config{Hosts: 4, Policy: c.build()})
				if res.Slowdown.Count() == 0 {
					b.Fatal("no jobs completed")
				}
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkManyHosts measures per-arrival host selection as the host
// count grows: the indexed policies answer through the View argmin
// queries in O(log h) or O(1). The same trace is re-dispatched at every
// h. Plain Run sends Least-Work-Left to the direct recurrence, so
// LeastWorkLeft against LeastWorkLeft-engine (pinned by OrderCheck) is
// the direct path's gain. BENCH_4.json records the indexed-vs-scan
// ratios measured when the O(h) scans were replaced; the scans live on
// as test oracles in internal/policy.
func BenchmarkManyHosts(b *testing.B) {
	wl, err := LoadWorkload("psc-c90", 9)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		build  func() Policy
		engine bool
	}{
		{"LeastWorkLeft", func() Policy { return policy.NewLeastWorkLeft() }, false},
		{"LeastWorkLeft-engine", func() Policy { return policy.NewLeastWorkLeft() }, true},
		{"ShortestQueue", func() Policy { return policy.NewShortestQueue() }, false},
		{"CentralQueue", func() Policy { return policy.NewCentralQueue() }, false},
	}
	for _, h := range []int{16, 128, 1024} {
		jobs := wl.JobsAtLoad(0.7, h, true, 9)
		if len(jobs) > 20000 {
			jobs = jobs[:20000]
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("h%d/%s", h, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := server.Run(jobs, server.Config{Hosts: h, Policy: c.build(), OrderCheck: c.engine})
					if res.Slowdown.Count() == 0 {
						b.Fatal("no jobs completed")
					}
				}
				b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			})
		}
	}
}

// BenchmarkDirectVsEngine measures the direct-recurrence fast path
// (oblivious and work-only policies) against the event-heap engine on the same 100k-job C90 stream:
// identical Run call, identical output bytes (the differential tests prove
// it), only the dispatch changed: the engine cells set Config.OrderCheck,
// which pins the run to the event heap and adds a two-compare order
// assertion per event. The <policy>/h=N direct-to-engine ns/op ratio is the
// fast path's speedup; BENCH_9.json records the medians.
func BenchmarkDirectVsEngine(b *testing.B) {
	prof := trace.C90()
	prof.Jobs = 100000
	wl, err := WorkloadFromProfile(prof, 9)
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []int{2, 32} {
		jobs := wl.JobsAtLoad(0.7, h, true, 9)
		// The full (h-1)-cutoff SITA design keeps the policy in the
		// oblivious family at every h. Least-Work-Left and, at h > 2, the
		// grouped SITA+LWL hybrid stand for the work-only family, whose
		// direct cells also maintain the clock-backed work index.
		design, err := core.NewDesignFull(core.SITAE, 0.7, wl.Size, h)
		if err != nil {
			b.Fatal(err)
		}
		// EstimatedLWL is deliberately absent: its Assign is an O(h)
		// believed-backlog scan that dominates both paths symmetrically,
		// so its cells measure the policy, not the dispatch machinery.
		// The differential tests still cover its direct-path parity.
		type benchCase struct {
			name  string
			build func() Policy
		}
		cases := []benchCase{
			{"Random", func() Policy { return policy.NewRandom(NewRNG(9, 60)) }},
			{"RoundRobin", func() Policy { return policy.NewRoundRobin() }},
			{"SITA-E", func() Policy { return design.Policy() }},
			{"LeastWorkLeft", func() Policy { return policy.NewLeastWorkLeft() }},
		}
		if h > 2 {
			// Every arrival of the grouped hybrid asks the work index for a
			// range argmin (MinWorkHostIn over the short or the long group).
			grouped, err := core.NewDesign(core.SITAUFair, 0.7, wl.Size, h)
			if err != nil {
				b.Fatal(err)
			}
			cases = append(cases, benchCase{"GroupedSITA", grouped.Policy})
		}
		for _, c := range cases {
			for _, mode := range []struct {
				name   string
				engine bool
			}{{"direct", false}, {"engine", true}} {
				b.Run(fmt.Sprintf("%s/h%d/%s", c.name, h, mode.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res := server.Run(jobs, server.Config{Hosts: h, Policy: c.build(), OrderCheck: mode.engine})
						if res.Slowdown.Count() == 0 {
							b.Fatal("no jobs completed")
						}
					}
					b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
				})
			}
		}
	}
}

// BenchmarkCutoffSearch measures the analytic cutoff optimizers, the
// expensive step of deploying SITA-U.
func BenchmarkCutoffSearch(b *testing.B) {
	wl, err := LoadWorkload("psc-c90", 9)
	if err != nil {
		b.Fatal(err)
	}
	lambda := 2 * 0.7 / wl.Size.Moment(1)
	b.Run("SITA-E", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			queueing.EqualLoadCutoff(wl.Size)
		}
	})
	b.Run("SITA-U-opt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := queueing.OptimalCutoff(lambda, wl.Size); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SITA-U-fair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := queueing.FairCutoff(lambda, wl.Size); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, h := range []int{4, 8} {
		b.Run(fmt.Sprintf("multi-opt-h%d", h), func(b *testing.B) {
			lam := float64(h) * 0.7 / wl.Size.Moment(1)
			for i := 0; i < b.N; i++ {
				if _, err := queueing.OptimalCutoffs(lam, wl.Size, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMG1Analysis measures a single Pollaczek-Khinchine evaluation —
// the inner loop of every cutoff search.
func BenchmarkMG1Analysis(b *testing.B) {
	wl, err := LoadWorkload("psc-c90", 9)
	if err != nil {
		b.Fatal(err)
	}
	lambda := 2 * 0.7 / wl.Size.Moment(1)
	cut := queueing.EqualLoadCutoff(wl.Size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := queueing.NewSITA(lambda, wl.Size, []float64{cut}).Analyze()
		if r.MeanSlowdown <= 1 {
			b.Fatal("bogus analysis")
		}
	}
}

func BenchmarkTAGS(b *testing.B)             { benchExperiment(b, "tags") }
func BenchmarkTailLatency(b *testing.B)      { benchExperiment(b, "tail-latency") }
func BenchmarkDerivation(b *testing.B)       { benchExperiment(b, "derivation") }
func BenchmarkSJF(b *testing.B)              { benchExperiment(b, "sjf") }
func BenchmarkEstimateNoise(b *testing.B)    { benchExperiment(b, "estimate-noise") }
func BenchmarkResponseTime(b *testing.B)     { benchExperiment(b, "response-time") }
func BenchmarkVarianceAnalysis(b *testing.B) { benchExperiment(b, "variance-analysis") }
