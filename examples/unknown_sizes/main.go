// Unknown sizes: what if users cannot (or will not) estimate runtimes at
// all? SITA needs a size at dispatch time; TAGS (the paper's reference
// [10]) does not — jobs start on host 1 and are killed-and-restarted up the
// chain when they outlive each host's cutoff. This example quantifies the
// price of size-blindness on a heavy-tailed workload.
//
// Run with: go run ./examples/unknown_sizes
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"sita"
)

func main() {
	wl, err := sita.LoadWorkload("psc-c90", 23)
	if err != nil {
		log.Fatal(err)
	}
	// Trim for a snappy example; raise for tighter estimates. Truncate
	// keeps the trace's size mean and cache identity in step with its
	// jobs, so the stream is re-timed to the load asked for.
	wl.Trace = wl.Trace.Truncate(30000)
	const hosts = 2
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "load\tpolicy\tneeds sizes?\tmean slowdown\twasted work\n")

	for _, load := range []float64{0.3, 0.5, 0.7} {
		jobs := wl.JobsAtLoad(load, hosts, true, 23)
		lambda := float64(hosts) * load / wl.Size.Moment(1)

		// TAGS: optimize the kill cutoffs analytically, then simulate.
		cuts, err := sita.OptimalTAGSCutoffs(lambda, wl.Size, hosts)
		if err != nil {
			log.Fatalf("load %v: %v", load, err)
		}
		tagsRes := sita.SimulateTAGS(jobs, cuts, 0.1)
		fmt.Fprintf(w, "%.1f\tTAGS (cutoff %.0fs)\tno\t%.1f\t%.1f%%\n",
			load, cuts[0], tagsRes.Slowdown.Mean(), 100*tagsRes.WasteFraction())

		// Size-blind baseline: Least-Work-Left needs backlog estimates,
		// Random needs nothing.
		for _, e := range []struct {
			name string
			pol  sita.Policy
		}{
			{"Random", sita.NewRandomPolicy(sita.NewRNG(23, 100))},
			{"Least-Work-Left", sita.NewLeastWorkLeftPolicy()},
		} {
			res := sita.SimulateOpts(e.pol, jobs, hosts, sita.SimOptions{Warmup: 0.1})
			fmt.Fprintf(w, "%.1f\t%s\tno*\t%.1f\t-\n", load, e.name, res.Slowdown.Mean())
		}

		// Size-aware reference: SITA-U-fair.
		d, err := sita.NewDesign(sita.SITAUFair, load, wl.Size, hosts)
		if err != nil {
			log.Fatal(err)
		}
		res := sita.SimulateOpts(d.Policy(), jobs, hosts, sita.SimOptions{Warmup: 0.1})
		fmt.Fprintf(w, "%.1f\tSITA-U-fair\tyes\t%.1f\t-\n", load, res.Slowdown.Mean())
		fmt.Fprintln(w, "\t\t\t\t")
	}
	w.Flush()
	fmt.Println("*  LWL needs per-host backlog estimates (submitted runtime estimates in practice)")
	fmt.Println("reading: TAGS pays a wasted-work tax for size-blindness yet stays within reach of")
	fmt.Println("size-aware SITA-U, and far ahead of the balancing baselines — load unbalancing,")
	fmt.Println("not size knowledge, is what exploits the heavy tail.")
}
