// Policy comparison: run every task assignment policy the paper evaluates
// on the same job stream across a range of system loads, printing mean and
// variance of slowdown side by side — a miniature of the paper's figures 2
// and 4 you can point at your own workload.
//
// Run with: go run ./examples/policy_comparison [profile]
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"sita"
)

func main() {
	profile := "psc-c90"
	if len(os.Args) > 1 {
		profile = os.Args[1]
	}
	wl, err := sita.LoadWorkload(profile, 7)
	if err != nil {
		log.Fatal(err)
	}
	// Trim for a snappy example; raise for tighter estimates. Truncate
	// keeps the trace's size mean and cache identity in step with its
	// jobs, so the stream is re-timed to the load asked for.
	wl.Trace = wl.Trace.Truncate(25000)

	const hosts = 2
	loads := []float64{0.5, 0.7, 0.9}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "load\tpolicy\tmean E[S]\tVar[S]\tpredicted E[S]\n")
	for _, load := range loads {
		jobs := wl.JobsAtLoad(load, hosts, true, 7)

		// Baselines are stateless or carry their own RNG; build fresh per
		// load.
		type entry struct {
			name string
			pol  sita.Policy
		}
		entries := []entry{
			{"Random", sita.NewRandomPolicy(sita.NewRNG(7, 100))},
			{"Round-Robin", sita.NewRoundRobinPolicy()},
			{"Shortest-Queue", sita.NewShortestQueuePolicy()},
			{"Least-Work-Left", sita.NewLeastWorkLeftPolicy()},
		}
		for _, v := range []sita.Variant{sita.SITAE, sita.SITAUOpt, sita.SITAUFair} {
			d, err := sita.NewDesign(v, load, wl.Size, hosts)
			if err != nil {
				continue // infeasible at this load
			}
			entries = append(entries, entry{d.Variant.String(), d.Policy()})
		}

		for _, e := range entries {
			res := sita.SimulateOpts(e.pol, jobs, hosts, sita.SimOptions{Warmup: 0.1})
			pred := "-"
			if m, err := sita.Predict(e.name, load, wl.Size, hosts); err == nil {
				pred = fmt.Sprintf("%.1f", m)
			}
			fmt.Fprintf(w, "%.1f\t%s\t%.1f\t%.3g\t%s\n",
				load, e.name, res.Slowdown.Mean(), res.Slowdown.Variance(), pred)
		}
		fmt.Fprintln(w, "\t\t\t\t")
	}
	w.Flush()
	fmt.Println("note: size-interval policies with unbalanced load (SITA-U-*) dominate at every load;")
	fmt.Println("      the heavier the size tail, the bigger the win (try: go run ./examples/policy_comparison ctc-sp2)")
}
