// Fairness audit: simulate three policies and report the expected slowdown
// per job-size decile. The paper's claim — SITA-U-fair helps short jobs
// without starving long ones — becomes a visible flat profile, while
// balancing policies skew sharply against small jobs.
//
// Run with: go run ./examples/fairness_audit
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"sita"
	"sita/internal/stats"
)

func main() {
	wl, err := sita.LoadWorkload("psc-c90", 11)
	if err != nil {
		log.Fatal(err)
	}
	// Trim for a snappy example; raise for tighter estimates. Truncate
	// keeps the trace's size mean and cache identity in step with its
	// jobs, so the stream is re-timed to the load asked for.
	wl.Trace = wl.Trace.Truncate(30000)
	const load, hosts = 0.7, 2
	jobs := wl.JobsAtLoad(load, hosts, true, 11)

	// Decile boundaries of the analytic size distribution.
	bounds := make([]float64, 9)
	for i := range bounds {
		bounds[i] = wl.Size.Quantile(float64(i+1) / 10)
	}

	type candidate struct {
		name string
		pol  sita.Policy
	}
	var candidates []candidate
	candidates = append(candidates, candidate{"Least-Work-Left", sita.NewLeastWorkLeftPolicy()})
	for _, v := range []sita.Variant{sita.SITAE, sita.SITAUFair} {
		d, err := sita.NewDesign(v, load, wl.Size, hosts)
		if err != nil {
			log.Fatal(err)
		}
		candidates = append(candidates, candidate{d.Variant.String(), d.Policy()})
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "size decile\tmedian size(s)")
	for _, c := range candidates {
		fmt.Fprintf(w, "\t%s", c.name)
	}
	fmt.Fprintln(w)

	profiles := make([][]float64, len(candidates))
	spreads := make([]float64, len(candidates))
	for i, c := range candidates {
		tally := stats.NewDecileTally(bounds)
		res := sita.SimulateOpts(c.pol, jobs, hosts, sita.SimOptions{Warmup: 0.1, KeepRecords: true})
		for _, r := range res.Records {
			tally.Add(r.Size, r.Slowdown())
		}
		row := make([]float64, tally.Classes())
		for cl := 0; cl < tally.Classes(); cl++ {
			row[cl] = tally.Mean(cl)
		}
		profiles[i] = row
		spreads[i] = tally.Spread()
	}
	for cl := 0; cl < 10; cl++ {
		median := wl.Size.Quantile((float64(cl) + 0.5) / 10)
		fmt.Fprintf(w, "%d\t%.0f", cl+1, median)
		for i := range candidates {
			fmt.Fprintf(w, "\t%.1f", profiles[i][cl])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "max/min spread\t")
	for i := range candidates {
		fmt.Fprintf(w, "\t%.1f", spreads[i])
	}
	fmt.Fprintln(w)
	w.Flush()

	fmt.Println("\n" + strings.TrimSpace(`
reading: a perfectly fair policy shows the same expected slowdown in every
decile (spread 1). Balancing policies crush small jobs behind elephants;
SITA-U-fair flattens the profile by giving shorts an underloaded host while
long jobs amortize their waiting over long lifetimes.`))
}
