// Command advisor is the operator-facing capstone: given a workload (a
// built-in profile or a real SWF log), a host count and a system load, it
// characterizes the workload, predicts every policy's performance,
// derives each SITA variant's cutoffs, recommends a task assignment
// design, and verifies the recommendation by simulation.
//
// Usage:
//
//	advisor -profile psc-c90 -load 0.7
//	advisor -profile psc-c90 -load 0.7 -hosts 8   # plus full multi-cutoff vectors
//	advisor -in mylog.swf -hosts 4 -load 0.6 -slo 50
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"sita"
	"sita/internal/catalog"
	"sita/internal/core"
)

func main() {
	var (
		profile = flag.String("profile", "psc-c90", "workload profile")
		in      = flag.String("in", "", "characterize this SWF log instead of a built-in profile")
		hosts   = flag.Int("hosts", 2, "number of hosts")
		load    = flag.Float64("load", 0.7, "system load in (0,1)")
		slo     = flag.Float64("slo", 0, "mean-slowdown objective (0 = none); reported against the recommendation")
		jobs    = flag.Int("jobs", 30000, "jobs for the verification simulation")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	if err := checkFlags(*profile, *in, *hosts, *load, *jobs, *slo); err != nil {
		fatal(err)
	}

	var wl *sita.Workload
	var err error
	if *in != "" {
		wl, err = sita.WorkloadFromSWF(*in)
	} else {
		wl, err = sita.LoadWorkload(*profile, *seed)
	}
	if err != nil {
		fatal(err)
	}

	adv := core.Advise(*load, wl.Size, *hosts)

	// 1. Characterize.
	st := wl.Trace.ComputeStats()
	fmt.Printf("workload %s\n", wl.Profile.Name)
	fmt.Printf("  %d jobs, mean %.0fs, range [%.0fs, %.0fs]\n", st.Jobs, st.Mean, st.Min, st.Max)
	fmt.Printf("  size C^2 = %.1f (fitted Bounded Pareto alpha = %.2f)\n", adv.SizeSCV, wl.Size.Alpha)
	fmt.Printf("  heavy tail: the biggest %.2f%% of jobs carry half the load (cutoff %.0fs)\n",
		100*adv.TailFraction, adv.TailCutoff)

	// 2. Predict every policy (2-host closed forms; simulation covers the
	//    configured host count below).
	fmt.Printf("\nanalytic predictions (2 hosts, load %.2f):\n", *load)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  policy\tE[S]\tneeds job sizes?\n")
	for _, name := range []string{"Random", "Round-Robin", "Least-Work-Left", "SITA-E", "SITA-U-fair", "SITA-U-opt"} {
		v, err := sita.Predict(name, *load, wl.Size, 2)
		if err != nil {
			fmt.Fprintf(w, "  %s\t-\t\n", name)
			continue
		}
		needs := "no"
		switch name {
		case "Least-Work-Left":
			needs = "estimates"
		case "SITA-E", "SITA-U-fair", "SITA-U-opt":
			needs = "one cutoff"
		}
		fmt.Fprintf(w, "  %s\t%.1f\t%s\n", name, v, needs)
	}
	w.Flush()

	// 3. Derive every SITA variant's design on the configured host count
	//    (one cutoff, as the grouped construction uses; predictions exist
	//    for 2 hosts only) and, beyond 2 hosts, the full cutoff vectors.
	fmt.Printf("\nSITA designs (%d hosts, load %.2f):\n", *hosts, *load)
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  variant\tcutoff(s)\tshort-load frac\tpredicted E[S]\tpredicted Var[S]\thost loads\n")
	for _, vd := range adv.Variants {
		d := vd.Design
		if d == nil {
			fmt.Fprintf(w, "  %s\t-\t-\t-\t-\t%v\n", vd.Variant, vd.Err)
			continue
		}
		es, vs, loads := "-", "-", "-"
		if d.HasPrediction {
			es, vs = fmt.Sprintf("%.2f", d.Predicted.MeanSlowdown), fmt.Sprintf("%.3g", d.Predicted.VarSlowdown)
			hl := make([]string, len(d.Predicted.Hosts))
			for i, h := range d.Predicted.Hosts {
				hl[i] = fmt.Sprintf("%.3f", h.Load)
			}
			loads = strings.Join(hl, " ")
		}
		fmt.Fprintf(w, "  %s\t%.1f\t%.3f\t%s\t%s\t%s\n", vd.Variant, d.Cutoff, d.ShortLoadFraction(), es, vs, loads)
	}
	w.Flush()
	if *hosts > 2 {
		fmt.Printf("\nfull multi-cutoff vectors for %d hosts (the search the paper calls too expensive):\n", *hosts)
		for _, v := range []core.Variant{core.SITAE, core.SITAUOpt, core.SITAUFair} {
			if fd, err := core.NewDesignFull(v, *load, wl.Size, *hosts); err != nil {
				fmt.Printf("  %-11s %v\n", v, err)
			} else {
				fmt.Printf("  %-11s %v\n", v, round(fd.Cutoffs))
			}
		}
	}

	// 4. Recommend.
	design := adv.Recommended
	if design == nil {
		fatal(fmt.Errorf("no feasible SITA-U design at load %v on %d hosts", *load, *hosts))
	}
	fmt.Printf("\nrecommendation: %s on %d hosts\n", design.Variant, *hosts)
	fmt.Printf("  size cutoff: %.0fs (jobs up to this run on the short side: %d of %d hosts)\n",
		design.Cutoff, design.ShortHosts, *hosts)
	fmt.Printf("  short side carries %.0f%% of the load (rule of thumb: %.0f%%)\n",
		100*design.ShortLoadFraction(), 100*core.RuleOfThumbFraction(*load))

	// 5. Verify by simulation on the configured host count.
	sim := wl.JobsAtLoad(*load, *hosts, true, *seed)
	if *jobs > 0 && *jobs < len(sim) {
		sim = sim[:*jobs]
	}
	res := sita.SimulateOpts(design.Policy(), sim, *hosts, sita.SimOptions{
		Warmup:    0.1,
		SizeClass: design.Classify,
	})
	fmt.Printf("\nverification (simulated %d jobs on %d hosts):\n", len(sim), *hosts)
	fmt.Printf("  mean slowdown %.1f, variance %.3g, p-max %.0f\n",
		res.Slowdown.Mean(), res.Slowdown.Variance(), res.Slowdown.Max())
	if audit, err := design.Audit(res); err == nil {
		fmt.Printf("  fairness: short jobs E[S] = %.1f, long jobs E[S] = %.1f\n",
			audit.ShortMean, audit.LongMean)
	}
	baseline := sita.SimulateOpts(sita.NewLeastWorkLeftPolicy(), sim, *hosts, sita.SimOptions{Warmup: 0.1})
	fmt.Printf("  vs Least-Work-Left: %.1f (%.1fx better)\n",
		baseline.Slowdown.Mean(), baseline.Slowdown.Mean()/res.Slowdown.Mean())

	if *slo > 0 {
		verdict := "MEETS"
		if res.Slowdown.Mean() > *slo {
			verdict = "MISSES"
		}
		fmt.Printf("\nSLO: mean slowdown <= %.0f -> recommendation %s the objective (measured %.1f)\n",
			*slo, verdict, res.Slowdown.Mean())
	}
}

// round formats cutoffs to a tenth of a second.
func round(cuts []float64) []string {
	out := make([]string, len(cuts))
	for i, c := range cuts {
		out[i] = fmt.Sprintf("%.1f", c)
	}
	return out
}

// checkFlags validates the flags before any work, naming the first bad one.
func checkFlags(profile, in string, hosts int, load float64, jobs int, slo float64) error {
	if in == "" {
		if err := catalog.CheckProfile(profile); err != nil {
			return fmt.Errorf("-profile: %w", err)
		}
	}
	if err := catalog.CheckAdviceHosts(hosts); err != nil {
		return fmt.Errorf("-hosts: %w", err)
	}
	if err := catalog.CheckLoad(load); err != nil {
		return fmt.Errorf("-load: %w", err)
	}
	if err := catalog.CheckJobs(jobs); err != nil {
		return fmt.Errorf("-jobs: %w", err)
	}
	if err := checkSLO(slo); err != nil {
		return fmt.Errorf("-slo: %w", err)
	}
	return nil
}

// checkSLO accepts a mean-slowdown objective: finite and >= 0, with 0
// meaning none.
func checkSLO(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("mean-slowdown objective must be finite and >= 0 (0 = none), got %v", v)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "advisor:", err)
	os.Exit(1)
}
