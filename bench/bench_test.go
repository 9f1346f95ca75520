package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain hands child invocations to run: the benchmark re-executes its
// own binary for every repetition, and under go test that binary is the
// test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// runToy runs the benchmark at smoke-test sizes and returns its last line.
func runToy(t *testing.T, args ...string) resultLine {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-toy", "-reps", "1", "-root", ".."}, args...)
	if code := run(args, &out); code != 0 {
		t.Fatalf("run %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
		t.Fatalf("result %+v\n%s", line, out.String())
	}
	return line
}

func names(specs []metricSpec) []string {
	var out []string
	for _, m := range specs {
		out = append(out, m.Name)
	}
	return out
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			line := runToy(t, "-workload", w)
			if got := sortedKeys(line.Metrics); !slices.Equal(got, sortedKeys(specsByName(endToEnd))) {
				t.Errorf("metrics %v, want the end-to-end list %v", got, names(endToEnd))
			}
		})
	}
}

// TestSmokeTraced runs the traced path, probes, the driver sweep and the
// capacity ladder included.
func TestSmokeTraced(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	line := runToy(t, "-workload", "simd-miss", "-trace", spans)
	layer := specsByName(perLayer())
	for name := range line.Metrics {
		if _, ok := layer[name]; !ok {
			t.Errorf("traced run emitted %s, which is not a per-layer metric", name)
		}
	}
	for _, name := range []string{"loadgen.slo_rps", "service.cache_misses", "server.ns_per_job.lwl-h2", "experiment.fig8_ms"} {
		if _, ok := line.Metrics[name]; !ok {
			t.Errorf("traced run did not emit %s", name)
		}
	}
	buf, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(buf, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("spans file: %v, %d events", err, len(trace.TraceEvents))
	}
}

// TestNamesMatchBenchmarkJSON holds the code's workload and metric lists
// and BENCHMARK.json to each other, in both directions.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	if !slices.Equal(ws, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", ws, workloads)
	}
	var e2e []metricSpec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricSpec)
	}
	for _, c := range []struct {
		kind       string
		file, code []metricSpec
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", b.PerLayer, perLayer()}} {
		file, code := specsByName(c.file), specsByName(c.code)
		for name, m := range code {
			if f, ok := file[name]; !ok || f.Unit != m.Unit || f.Better != m.Better {
				t.Errorf("%s: code has %+v, BENCHMARK.json %+v", c.kind, m, f)
			}
		}
		for name := range file {
			if _, ok := code[name]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %s, which the code does not emit", c.kind, name)
			}
		}
	}
}

// TestPerLayerMoves holds each per-layer metric's "metric@workload" targets
// to the end-to-end metrics and workloads BENCHMARK.json lists. Only the
// metrics that describe the benchmark itself name none.
func TestPerLayerMoves(t *testing.T) {
	b, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer() {
		self := strings.HasPrefix(m.Name, "loadgen.") || strings.HasPrefix(m.Name, "bench.")
		if len(m.moves) == 0 && !self {
			t.Errorf("%s names no end-to-end metric it should move", m.Name)
		}
		for _, mv := range m.moves {
			metric, workload, _ := strings.Cut(mv, "@")
			if !slices.ContainsFunc(b.EndToEnd, func(e boundedSpec) bool { return e.Name == metric }) ||
				!slices.Contains(b.Workloads, workloadSpec{workload}) {
				t.Errorf("%s moves %q, which is not an end-to-end metric on a workload of BENCHMARK.json", m.Name, mv)
			}
		}
	}
}

func specsByName(specs []metricSpec) map[string]metricSpec {
	out := map[string]metricSpec{}
	for _, m := range specs {
		m.workloadScoped = false
		m.moves = nil
		out[m.Name] = m
	}
	return out
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name         string
		base, change []float64
		better       string
		want         string
	}{
		{"same", steady, steady, "lower", "unchanged"},
		{"slower", steady, []float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{"faster", steady, []float64{80, 81, 79, 80, 82}, "lower", "improved"},
		{"higher is better", steady, []float64{80, 81, 79, 80, 82}, "higher", "worse"},
		{"noisy overlap", []float64{60, 100, 140, 100, 70}, []float64{65, 110, 150, 105, 75}, "lower", "unresolved"},
		{"noisy but apart", []float64{90, 100, 120, 95, 110}, []float64{130, 150, 170, 140, 160}, "lower", "worse"},
	} {
		base := &metricValue{Value: median(c.base), Samples: c.base}
		change := &metricValue{Value: median(c.change), Samples: c.change}
		if got := verdict(base, change, 0.1, c.better); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
