package experiment

import (
	"runtime"
	"strings"
	"testing"
)

// renderAll renders every table of a driver run to one CSV blob, the
// byte-level fingerprint the determinism tests compare.
func renderAll(t *testing.T, driver func(Config) ([]Table, error), cfg Config) string {
	t.Helper()
	tables, err := driver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.ID)
		sb.WriteByte('\n')
		sb.WriteString(tb.CSV())
	}
	return sb.String()
}

// TestWorkerCountInvariance is the contract of the parallel runner: the
// same figure driver must produce byte-identical CSV output for workers=1
// (the sequential fast path), workers=4, and workers=GOMAXPROCS, because
// every cell's seed is a pure function of its coordinates and results are
// collected in cell order.
func TestWorkerCountInvariance(t *testing.T) {
	withCellMemo(t, 0) // every worker count simulates its cells
	cfg := testConfig()
	cfg.Jobs = 6000
	drivers := map[string]func(Config) ([]Table, error){
		"fig4":             Figure4, // representative simSweep driver
		"fig6":             Figure6, // host-count × policy cells
		"misclassify":      Misclassification,
		"fairness-profile": FairnessProfile,
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for name, driver := range drivers {
		name, driver := name, driver
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Workers = workerCounts[0]
			want := renderAll(t, driver, cfg)
			for _, w := range workerCounts[1:] {
				cfg.Workers = w
				if got := renderAll(t, driver, cfg); got != want {
					t.Errorf("workers=%d output differs from workers=1:\n--- workers=1\n%s\n--- workers=%d\n%s",
						w, want, w, got)
				}
			}
		})
	}
}

// TestReplicateWorkerCountInvariance extends the guarantee through the
// replication layer, which splits the worker budget between whole
// replications and each driver's cells.
func TestReplicateWorkerCountInvariance(t *testing.T) {
	withCellMemo(t, 0) // every worker count simulates its cells
	cfg := testConfig()
	cfg.Jobs = 4000
	cfg.Loads = []float64{0.7}
	seeds := []uint64{1, 2, 3}
	render := func(workers int) string {
		cfg := cfg
		cfg.Workers = workers
		tables, err := Replicate(Figure4, cfg, seeds)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			sb.WriteString(tb.ID)
			sb.WriteByte('\n')
			sb.WriteString(tb.CSV())
		}
		return sb.String()
	}
	want := render(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := render(w); got != want {
			t.Errorf("replicate with workers=%d differs from workers=1:\n%s\nvs\n%s", w, want, got)
		}
	}
}

// TestProgressReporting verifies a driver surfaces cell completion through
// Config.Progress exactly once per cell.
func TestProgressReporting(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 2000
	cfg.Loads = []float64{0.5, 0.7}
	var calls, lastTotal int
	cfg.Progress = func(done, total int) {
		calls++
		lastTotal = total
	}
	if _, err := Figure4(cfg); err != nil {
		t.Fatal(err)
	}
	// Figure 4 sweeps 3 SITA variants over 2 loads = 6 cells.
	if lastTotal != 6 || calls != 6 {
		t.Errorf("progress saw %d calls with total %d, want 6 and 6", calls, lastTotal)
	}
}
