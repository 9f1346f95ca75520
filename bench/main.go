// Command bench is the repository's benchmark. It measures five workloads:
// a cold regeneration of the paper's tables, two sets of simulation cells
// (one on the direct recurrence, one on the event engine), and requests to
// the simd service that all hit its response cache or all miss it. Every
// repetition runs in a fresh child process that the benchmark starts by
// re-executing itself; every output is checked; and every metric is printed
// as
//
//	workload metric unit value p25 p75 n
//
// followed by one JSON line with the run's verdict and metric values.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -seed 1                        # all five workloads
//	bash bench/run.sh --workload cells-engine --seed 2 --seconds 20 --trace 0
//	bash bench/run.sh -workload paper-sweep -trace spans.json
//	bash bench/run.sh -seed 1 -reps 5 -out base.json
//	bash bench/run.sh compare base.json change.json
//
// bench/README.md describes the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are the parent's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	reps     int
	trace    string
	out      string
	root     string
	toy      bool
}

func (o options) traced() bool { return o.trace != "0" && o.trace != "" }

// spansPath is where a traced run writes its Chrome trace.
func (o options) spansPath() string {
	if o.trace == "1" {
		return filepath.Join(".bench_build", "spans.json")
	}
	return o.trace
}

func (o options) sizes() sizes {
	if o.toy {
		return toySizes()
	}
	return fullSizes()
}

// report is the -out file: every sample of every metric, per workload.
type report struct {
	Seed      uint64            `json:"seed"`
	Go        string            `json:"go"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string                  `json:"name"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Checked   string                  `json:"checked"`
	Failures  []string                `json:"failures,omitempty"`
	Outputs   map[string]string       `json:"outputs,omitempty"`
	Metrics   map[string]*metricValue `json:"metrics"`

	traced []tracedProcess
}

// metricValue is one metric's samples (one per repetition) and the value
// reported for the run.
type metricValue struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples"`
}

// set records samples with their median as the value.
func (w *workloadReport) set(spec metricSpec, samples ...float64) {
	w.Metrics[spec.Name] = &metricValue{Unit: spec.Unit, Value: median(samples), Samples: samples}
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "the workload to run: paper-sweep, cells-direct, cells-engine, simd-hit or simd-miss (default all five)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 20, "time budget per workload: repetitions start until it is spent")
	fs.IntVar(&o.reps, "reps", 0, "run exactly this many repetitions per workload instead of filling -seconds")
	fs.StringVar(&o.trace, "trace", "0", "0 runs untraced; 1 runs the traced run and writes its spans to .bench_build/spans.json; any other value is the spans file")
	fs.StringVar(&o.out, "out", "", "also write every sample as JSON to this file")
	fs.StringVar(&o.root, "root", ".", "repository root, which holds results/ and bench/testdata")
	fs.BoolVar(&o.toy, "toy", false, "smoke-test sizes: one analytic driver, 2k-job cells, 1 s of simd")
	child := fs.String("child", "", "internal: run one repetition of this workload, or the probes, and print its result")
	t0 := fs.Int64("t0", 0, "internal: when the parent started this child, in Unix nanoseconds")
	tracedChild := fs.Bool("traced", false, "internal: record spans in this child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		// The child runs on one core, so the reference task it times shares
		// that core's conditions with all of its work: a second busy thread,
		// the collector's included, would run under another core's tenants.
		runtime.GOMAXPROCS(1)
		env := &childEnv{kind: *child, seed: o.seed, sz: o.sizes(), root: o.root, t0: time.Unix(0, *t0)}
		if *tracedChild {
			env.tr = &tracer{base: env.t0}
		}
		if err := runChild(*child, env, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *child, err)
			return 1
		}
		return 0
	}

	names := workloads
	if o.workload != "" {
		if !slices.Contains(workloads, o.workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", o.workload, workloads)
			return 2
		}
		names = []string{o.workload}
	}
	rep := &report{Seed: o.seed, Go: runtime.Version(), Traced: o.traced()}
	fmt.Fprintln(stdout, "# workload metric unit value p25 p75 n")
	start := now()
	for _, name := range names {
		w, err := measure(o, name, start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, w)
		printWorkload(stdout, w, o.traced())
	}
	if o.traced() {
		w, err := measureShared(o, names, start)
		if err == nil {
			rep.Workloads = append(rep.Workloads, w)
			if !o.toy {
				err = checkComplete(rep.Workloads)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printWorkload(stdout, w, true)
		var procs []tracedProcess
		for _, w := range rep.Workloads {
			procs = append(procs, w.traced...)
		}
		if err := writeChromeTrace(o.spansPath(), procs); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %s (open in ui.perfetto.dev or chrome://tracing)\n", o.spansPath())
	}
	if o.out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing -out:", err)
			return 1
		}
	}
	line := resultLineFor(rep, o.workload != "")
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(buf))
	if !line.Correct {
		return 1
	}
	return 0
}

// measure runs one workload. Untraced, it starts fresh children until the
// time budget (or -reps) is spent and reports the end-to-end metrics.
// Traced, it runs one untraced repetition as the overhead baseline and one
// traced repetition, and reports the per-layer metrics that repetition
// measured.
func measure(o options, name string, origin time.Time) (*workloadReport, error) {
	w := &workloadReport{Name: name, Metrics: map[string]*metricValue{}}
	var runs []*childResult
	start := now()
	for {
		r, err := spawn(o, name, false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		if o.traced() || (o.reps > 0 && len(runs) >= o.reps) ||
			(o.reps <= 0 && now().Sub(start).Seconds() >= o.seconds) {
			break
		}
	}
	w.Checked = runs[0].Checked
	w.Outputs = runs[0].Outputs
	for i, r := range runs {
		w.add(r)
		if i == 0 {
			continue
		}
		for _, k := range sortedKeys(runs[0].Outputs) {
			v := runs[0].Outputs[k]
			w.Attempted++
			if r.Outputs[k] != v {
				w.Failures = append(w.Failures, fmt.Sprintf("%s differs between repetitions: %s vs %s", k, v, r.Outputs[k]))
			}
		}
	}
	// The end-to-end metrics are at reference speed (speed.go); the wall
	// times and the reference's own time are kept beside them.
	w.Metrics["op_p50_ms"] = pooled("ms", runs, func(r *childResult) []float64 { return r.OpsMS })
	w.Metrics["bench.wall_op_p50_ms"] = pooled("ms", runs, func(r *childResult) []float64 { return r.WallOpsMS })
	w.Metrics["bench.ref_ms"] = pooled("ms", runs, func(r *childResult) []float64 { return r.RefMS })
	w.Metrics["setup_s"] = pooled("s", runs, func(r *childResult) []float64 { return []float64{r.SetupS} })
	w.Metrics["bench.wall_setup_s"] = pooled("s", runs, func(r *childResult) []float64 { return []float64{r.WallSetupS} })
	if o.traced() {
		if err := w.measureTraced(o, runs[0], origin); err != nil {
			return nil, err
		}
	}
	w.Failed = len(w.Failures)
	return w, nil
}

// pooled is the median of one value list over every repetition together,
// with each repetition's median as its samples.
func pooled(unit string, runs []*childResult, values func(*childResult) []float64) *metricValue {
	var all []float64
	per := make([]float64, len(runs))
	for i, r := range runs {
		all = append(all, values(r)...)
		per[i] = median(values(r))
	}
	return &metricValue{Unit: unit, Value: median(all), Samples: per}
}

// add folds one child's checks into the workload's.
func (w *workloadReport) add(r *childResult) {
	w.Attempted += r.Attempted
	w.Failures = append(w.Failures, r.Failures...)
}

// measureTraced runs the traced repetition and keeps the per-layer metrics
// it measured: the workload-scoped ones (0 where the workload never reaches
// the layer) and, on paper-sweep, the driver timings.
func (w *workloadReport) measureTraced(o options, baseline *childResult, origin time.Time) error {
	tr, err := spawn(o, w.Name, true)
	if err != nil {
		return err
	}
	w.add(tr)
	tr.Layer["bench.op_p90_ms"] = quantile(baseline.OpsMS, 0.9)
	tr.Layer["bench.tracing_overhead_pct"] = 100 * (median(tr.OpsMS)/median(baseline.OpsMS) - 1)
	for _, m := range perLayer() {
		if v, ok := tr.Layer[m.Name]; ok || m.workloadScoped {
			w.set(m, v)
		}
	}
	w.traced = []tracedProcess{{label: w.Name + " (traced repetition)", offset: us(tr.started.Sub(origin)), spans: tr.Spans}}
	return nil
}

// measureShared runs the probe child once per traced run, and a traced
// sweep for the driver timings when paper-sweep was not among the
// workloads. Their metrics do not depend on the workload, so the report
// lists them once, under "probes".
func measureShared(o options, names []string, origin time.Time) (*workloadReport, error) {
	w := &workloadReport{Name: "probes", Metrics: map[string]*metricValue{}, Checked: "layer calls return no error"}
	kinds := []string{"probes"}
	if !slices.Contains(names, "paper-sweep") {
		kinds = append(kinds, "paper-sweep")
	}
	for _, kind := range kinds {
		r, err := spawn(o, kind, true)
		if err != nil {
			return nil, err
		}
		w.add(r)
		if kind == "paper-sweep" {
			w.Checked += "; driver sweep against " + r.Checked
		}
		for _, m := range perLayer() {
			if v, ok := r.Layer[m.Name]; ok && !m.workloadScoped {
				w.set(m, v)
			}
		}
		w.traced = append(w.traced, tracedProcess{label: kind + " (probes)", offset: us(r.started.Sub(origin)), spans: r.Spans})
	}
	w.Failed = len(w.Failures)
	return w, nil
}

// checkComplete reports a per-layer metric that no part of a traced run
// measured.
func checkComplete(reports []*workloadReport) error {
	for _, m := range perLayer() {
		if !slices.ContainsFunc(reports, func(w *workloadReport) bool { return w.Metrics[m.Name] != nil }) {
			return fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
	}
	return nil
}

// spawn re-executes this binary as a child running one repetition.
func spawn(o options, kind string, traced bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", kind, "-seed", strconv.FormatUint(o.seed, 10), "-root", o.root}
	if traced {
		args = append(args, "-traced")
	}
	if o.toy {
		args = append(args, "-toy")
	}
	started := now()
	cmd := exec.Command(exe, append(args, "-t0", strconv.FormatInt(started.UnixNano(), 10))...)
	cmd.Stderr = os.Stderr
	// A child must not outlive a parent that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", kind, err)
	}
	var r childResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("child %s: reading its result: %w", kind, err)
	}
	r.started = started
	return &r, nil
}

// printWorkload prints the metric rows, the checks, and for a traced run
// the self-time tables.
func printWorkload(w io.Writer, r *workloadReport, traced bool) {
	for _, m := range append(slices.Clone(endToEnd), perLayer()...) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s %s %s %.6g %.6g %.6g %d\n", r.Name, m.Name, m.Unit,
			v.Value, quantile(v.Samples, 0.25), quantile(v.Samples, 0.75), len(v.Samples))
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "# %s: checked against %s; %d checks, %d failed (error_ratio %g)\n",
		r.Name, r.Checked, r.Attempted, r.Failed, ratio)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "#   FAILED %s\n", f)
	}
	for _, p := range r.traced {
		printSelfTimes(w, p.label, p.spans)
	}
	if traced && r.Name == "paper-sweep" {
		fmt.Fprintf(w, "# paper-sweep: driver spans cover %.1f%% of the traced sweep\n", 100*driverCoverage(r.traced[0].spans))
	}
}

// driverCoverage is the share of the traced sweep that its driver spans
// (rendering excluded) account for.
func driverCoverage(spans []span) float64 {
	var rep, drivers float64
	for _, s := range spans {
		switch {
		case s.Cat == "bench":
			rep = s.Dur
		case s.Cat == "experiment" && s.Name != "render":
			drivers += s.Dur
		}
	}
	return drivers / rep
}

// resultLine is the run's last line of output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLineFor lists the end-to-end metrics of an untraced run and the
// per-layer metrics of a traced one. With every workload in one run, each
// metric is keyed "workload/metric".
func resultLineFor(rep *report, single bool) resultLine {
	line := resultLine{Metrics: map[string]resultMetric{}}
	specs := endToEnd
	if rep.Traced {
		specs = perLayer()
	}
	for _, w := range rep.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for _, m := range specs {
			v, ok := w.Metrics[m.Name]
			if !ok {
				continue
			}
			key := m.Name
			if !single {
				key = w.Name + "/" + m.Name
			}
			line.Metrics[key] = resultMetric{Value: v.Value, Unit: m.Unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
