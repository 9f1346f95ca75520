package server

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sita/internal/dist"
	"sita/internal/sim"
	"sita/internal/workload"
)

// The golden kernel-equivalence suite pins the exact per-job record stream
// of the simulator — IDs, host assignments, and bit-exact start/departure
// times — across engine rewrites. The files under testdata/ were generated
// from the original closure-based event engine (one heap-allocated item and
// one Event closure per scheduled event, all arrivals pre-scheduled); any
// kernel change that reorders simultaneous events, perturbs a float, or
// breaks the FIFO tie-break shows up as a diff here before it can corrupt
// results/.
//
// Regenerate (only when the *model*, not the kernel, changes) with:
//
//	go test ./internal/server -run TestKernelGolden -update

var updateGolden = flag.Bool("update", false, "rewrite golden kernel-equivalence files")

// alternating pushes every third job to the central queue and spreads the
// rest round-robin: a mixed push/pull schedule that exercises the central
// queue and the per-host FIFO queues in one run.
type alternating struct{ n int }

func (*alternating) Name() string { return "alternating" }
func (a *alternating) Assign(j workload.Job, v View) int {
	a.n++
	if a.n%3 == 0 {
		return Central
	}
	return a.n % v.Hosts()
}

// toCentral holds every job at the dispatcher.
type toCentral struct{}

func (toCentral) Name() string                  { return "to-central" }
func (toCentral) Assign(workload.Job, View) int { return Central }

// goldenLWL is least-work-left by a WorkLeft scan, without importing
// internal/policy (which would create an import cycle in tests). A work
// policy, so plain Run takes the direct path; the engine scenarios set
// OrderCheck.
type goldenLWL struct{}

func (goldenLWL) Name() string { return "lwl" }
func (goldenLWL) Assign(_ workload.Job, v WorkView) int {
	best, bestW := 0, v.WorkLeft(0)
	for i := 1; i < v.Hosts(); i++ {
		if w := v.WorkLeft(i); w < bestW {
			best, bestW = i, w
		}
	}
	return best
}

// goldenJobs synthesizes a heavy-tailed job stream at high load so queues,
// central holds, and simultaneous-completion races all occur.
func goldenJobs(seed uint64, n int) []workload.Job {
	size := dist.NewBoundedPareto(1.2, 1, 1e4)
	lambda := workload.RateForLoad(0.9, size.Moment(1), 3)
	src := workload.NewSource(workload.NewPoisson(lambda),
		workload.DistSizes{D: size},
		sim.NewRNG(seed, 0), sim.NewRNG(seed, 1))
	return src.Take(n)
}

// tieJobs is a handcrafted stream of exact floating-point coincidences:
// simultaneous arrivals, arrivals landing exactly on earlier departures,
// and equal-size SJF candidates — the cases where only the engine's
// (time, seq) tie-break determines the outcome.
func tieJobs() []workload.Job {
	return []workload.Job{
		{Arrival: 0, Size: 5},
		{Arrival: 0, Size: 5}, // simultaneous with job 0, equal size
		{Arrival: 0, Size: 2}, // simultaneous, shorter (SJF must pick it first)
		{Arrival: 2, Size: 3}, // arrives exactly at job 2's departure (2 = 0+2)
		{Arrival: 5, Size: 1}, // arrives exactly at jobs 0/1's departure
		{Arrival: 5, Size: 1}, // and its twin
		{Arrival: 5, Size: 7},
		{Arrival: 6, Size: 1},   // arrives exactly when the size-1 twins depart
		{Arrival: 13, Size: 13}, // lone straggler after a full drain
		{Arrival: 13, Size: 13},
	}
}

func goldenScenarios() []struct {
	name string
	run  func() *Result
} {
	return []struct {
		name string
		run  func() *Result
	}{
		{"push-lwl", func() *Result {
			return Run(goldenJobs(42, 3000), Config{Hosts: 3, Policy: goldenLWL{}, KeepRecords: true, OrderCheck: true})
		}},
		{"central-fcfs", func() *Result {
			return Run(goldenJobs(43, 3000), Config{Hosts: 3, Policy: toCentral{}, CentralOrder: CentralFCFS, KeepRecords: true})
		}},
		{"central-sjf", func() *Result {
			return Run(goldenJobs(44, 3000), Config{Hosts: 3, Policy: toCentral{}, CentralOrder: CentralSJF, KeepRecords: true})
		}},
		{"mixed-push-pull", func() *Result {
			return Run(goldenJobs(45, 3000), Config{Hosts: 3, Policy: &alternating{}, CentralOrder: CentralSJF, KeepRecords: true})
		}},
		{"ps-cancel", func() *Result {
			return RunPS(goldenJobs(46, 1500), Config{Hosts: 2, Policy: goldenLWL{}, KeepRecords: true})
		}},
		{"ties-central-sjf", func() *Result {
			return Run(tieJobs(), Config{Hosts: 2, Policy: toCentral{}, CentralOrder: CentralSJF, KeepRecords: true})
		}},
		{"ties-push-lwl", func() *Result {
			return Run(tieJobs(), Config{Hosts: 2, Policy: goldenLWL{}, KeepRecords: true, OrderCheck: true})
		}},
	}
}

// formatRecords renders records bit-exactly: hex float literals round-trip
// every float64 without decimal rounding, so a one-ulp drift fails the diff.
func formatRecords(recs []JobRecord) string {
	var b strings.Builder
	hx := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	for _, r := range recs {
		fmt.Fprintf(&b, "%d %d %s %s %s %s\n",
			r.ID, r.Host, hx(r.Arrival), hx(r.Size), hx(r.Start), hx(r.Departure))
	}
	return b.String()
}

func TestKernelGoldenRecords(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got := formatRecords(sc.run().Records)
			path := filepath.Join("testdata", sc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to generate): %v", err)
			}
			if got != string(want) {
				t.Fatalf("record stream diverged from the closure-based engine's golden output (%s); first lines:\ngot:  %.200s\nwant: %.200s",
					path, got, want)
			}
		})
	}
}

// TestKernelGoldenDeterminism guards the goldens themselves: two runs of a
// scenario in one process must produce identical bytes, otherwise the files
// pin noise instead of semantics.
func TestKernelGoldenDeterminism(t *testing.T) {
	for _, sc := range goldenScenarios() {
		a := formatRecords(sc.run().Records)
		b := formatRecords(sc.run().Records)
		if a != b {
			t.Fatalf("%s: scenario is not deterministic within one process", sc.name)
		}
	}
}
