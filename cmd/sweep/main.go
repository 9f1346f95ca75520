// Command sweep regenerates the paper's tables and figures.
//
// Usage:
//
//	sweep -exp fig4                 # one experiment, text tables on stdout
//	sweep -exp all -out results/    # everything, one .txt + .csv per table
//	sweep -exp fig2 -profile psc-j90 -jobs 30000 -loads 0.3,0.5,0.7
//	sweep -exp all -workers 8       # fan simulation cells out over 8 CPUs
//
// Simulation cells (one run per (policy, load) pair) execute concurrently
// on -workers goroutines (default: all CPUs). Output is bit-identical for
// any worker count — per-cell seeds depend only on the cell's coordinates.
//
// Experiment ids: table1, fig2..fig13, cutoff-sensitivity,
// misclassification, burstiness, multi-cutoff, fairness-profile.
//
// Some sweeps are opt-in and excluded from -exp all (and from results/):
//
//	sweep -exp many-hosts           # indexed policies at h = 64..4096
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sita/internal/catalog"
	"sita/internal/experiment"
	"sita/internal/profiling"
	"sita/internal/runner"
	"sita/internal/streamcache"
	"sita/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all'")
		profile  = flag.String("profile", "psc-c90", "workload profile (psc-c90, psc-j90, ctc-sp2)")
		jobs     = flag.Int("jobs", 0, "cap on trace length per point (0 = profile default)")
		seed     = flag.Uint64("seed", 1, "random seed")
		warmup   = flag.Float64("warmup", 0.1, "warmup fraction excluded from statistics")
		loads    = flag.String("loads", "", "comma-separated system loads (default per experiment)")
		outDir   = flag.String("out", "", "directory for .txt and .csv outputs (default: stdout only)")
		csvOnly  = flag.Bool("csv", false, "print CSV instead of aligned text")
		asPlot   = flag.Bool("plot", false, "print ASCII line charts (log-y) instead of tables")
		reps     = flag.Int("rep", 1, "number of replications (hash-derived seeds); > 1 reports mean and 95% CI tables")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation cells; output is identical for any value")
		progress = flag.Bool("progress", false, "report per-experiment cell progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on successful exit")
		cacheMiB = flag.Int("stream-cache", streamcache.DefaultMaxBytes>>20,
			"job-stream cache budget in MiB (0 disables caching; output is identical either way)")
	)
	flag.Parse()

	if err := catalog.CheckProfile(*profile); err != nil {
		fatal(fmt.Errorf("-profile: %w", err))
	}
	if err := catalog.CheckJobs(*jobs); err != nil {
		fatal(fmt.Errorf("-jobs: %w", err))
	}
	if err := catalog.CheckWarmup(*warmup); err != nil {
		fatal(fmt.Errorf("-warmup: %w", err))
	}
	if err := catalog.CheckWorkers(*workers); err != nil {
		fatal(fmt.Errorf("-workers: %w", err))
	}
	if *reps < 1 {
		fatal(fmt.Errorf("-rep must be >= 1, got %d", *reps))
	}

	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fatal(err)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
	}()

	if *cacheMiB < 0 {
		fatal(fmt.Errorf("-stream-cache must be >= 0 MiB, got %d", *cacheMiB))
	}
	streamcache.Shared.SetMaxBytes(int64(*cacheMiB) << 20)

	cfg := experiment.Default()
	p, err := trace.ByName(*profile)
	if err != nil {
		fatal(err)
	}
	cfg.Profile = p
	cfg.Jobs = *jobs
	cfg.Seed = *seed
	cfg.Warmup = *warmup
	cfg.Workers = *workers
	if *progress {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r# %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	if *loads != "" {
		cfg.Loads = nil
		for _, s := range strings.Split(*loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatal(fmt.Errorf("bad load %q: %w", s, err))
			}
			if err := catalog.CheckLoad(v); err != nil {
				fatal(fmt.Errorf("-loads: %w", err))
			}
			cfg.Loads = append(cfg.Loads, v)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiment.IDs()
	}
	drivers := experiment.Drivers()
	for _, id := range ids {
		driver, ok := drivers[id]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (have: %s)", id, strings.Join(experiment.IDs(), ", ")))
		}
		//lint:allow nowallclock wall-clock runtime is operator progress output, not a result
		start := time.Now()
		var tables []experiment.Table
		var err error
		if *reps > 1 {
			// Replication seeds are hash-derived from the base seed so
			// consecutive replications share no low-bit structure.
			seeds := runner.ReplicationSeeds(cfg.Seed, *reps)
			tables, err = experiment.Replicate(driver, cfg, seeds)
		} else {
			tables, err = driver(cfg)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		//lint:allow nowallclock wall-clock runtime is operator progress output, not a result
		fmt.Fprintf(os.Stderr, "# %s finished in %v\n", id, time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			switch {
			case *asPlot:
				fmt.Println(t.Plot(true))
			case *csvOnly:
				fmt.Print(t.CSV())
			default:
				fmt.Println(t.Format())
			}
			if *outDir != "" {
				if err := writeOutputs(*outDir, t); err != nil {
					fatal(err)
				}
			}
		}
	}
}

func writeOutputs(dir string, t experiment.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, t.ID+".txt"), []byte(t.Format()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.ID+".csv"), []byte(t.CSV()), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
