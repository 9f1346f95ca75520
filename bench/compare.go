package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []boundedSpec  `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
}

// boundedSpec is an end-to-end metric with the share of the base median by
// which it may get worse before a change counts as a regression.
type boundedSpec struct {
	metricSpec
	Bound float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints, for each workload and end-to-end metric of two -out
// reports, both sides' medians and quartiles, the ratio to the base, and a
// verdict under the metric's bound; counts are compared for equality.
func compare(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root, which holds BENCHMARK.json")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bench compare [-root dir] base.json change.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	spec, err := readBenchmarkFile(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	base, err := readReport(fs.Arg(0))
	if err == nil {
		var change *report
		change, err = readReport(fs.Arg(1))
		if err == nil {
			printComparison(stdout, spec, base, change)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 1
}

func printComparison(w io.Writer, spec *benchmarkFile, base, change *report) {
	fmt.Fprintln(w, "# workload metric unit | base value p25 p75 | change value p25 p75 | ratio verdict")
	for _, b := range base.Workloads {
		i := slices.IndexFunc(change.Workloads, func(c *workloadReport) bool { return c.Name == b.Name })
		if i < 0 {
			fmt.Fprintf(w, "%s: not in the change's report\n", b.Name)
			continue
		}
		c := change.Workloads[i]
		for _, m := range spec.EndToEnd {
			bm, cm := b.Metrics[m.Name], c.Metrics[m.Name]
			if bm == nil || cm == nil {
				continue
			}
			fmt.Fprintf(w, "%s %s %s | %.6g %.6g %.6g | %.6g %.6g %.6g | %.4f %s\n", b.Name, m.Name, m.Unit,
				bm.Value, quantile(bm.Samples, 0.25), quantile(bm.Samples, 0.75),
				cm.Value, quantile(cm.Samples, 0.25), quantile(cm.Samples, 0.75),
				cm.Value/bm.Value, verdict(bm, cm, m.Bound, m.Better))
		}
		for _, m := range spec.PerLayer {
			bm, cm := b.Metrics[m.Name], c.Metrics[m.Name]
			if m.Unit != "count" || bm == nil || cm == nil {
				continue
			}
			same := "same"
			if !slices.Equal(bm.Samples, cm.Samples) {
				same = "differs"
			}
			fmt.Fprintf(w, "%s %s count | %g | %g | %s\n", b.Name, m.Name, bm.Value, cm.Value, same)
		}
		fmt.Fprintf(w, "%s checks | %d of %d failed | %d of %d failed |\n", b.Name, b.Failed, b.Attempted, c.Failed, c.Attempted)
	}
}

// verdict compares the change's value with the base's. A move by more than
// bound (a share of the base value) is improved or worse. When either
// side's quartile spread over its repetitions exceeds the bound the values
// cannot resolve a move that size, so the verdict is unresolved unless
// every repetition of one side beats every repetition of the other.
func verdict(base, change *metricValue, bound float64, better string) string {
	sign := 1.0 // +1 when lower is better
	if better == "higher" {
		sign = -1
	}
	worse := sign * (change.Value - base.Value) / base.Value
	spread := max(iqr(base.Samples)/median(base.Samples), iqr(change.Samples)/median(change.Samples))
	if spread > bound {
		switch {
		case beatsAll(change.Samples, base.Samples, sign):
			return "improved"
		case beatsAll(base.Samples, change.Samples, sign):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "improved"
	}
	return "unchanged"
}

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// beatsAll reports whether every sample of a is better than every one of b.
func beatsAll(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*x >= sign*y {
				return false
			}
		}
	}
	return true
}
