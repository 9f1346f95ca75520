package server

import (
	"os"
	"path/filepath"
	"testing"

	"sita/internal/workload"
)

// Golden replay through the indexed host-selection paths: the scenarios
// below re-run golden workloads with policies that answer through the
// View argmin queries (MinWorkHost, NextIdleHost) instead of the linear
// scans the golden files were generated with. Matching the same golden
// bytes proves the indices reproduce the scans' picks — including every
// tie — on the exact traces that pin the kernel's event ordering.

// indexedLWL is least-work-left through the incremental work index. A
// work policy, so plain Run takes the direct path; the engine scenarios
// set OrderCheck.
type indexedLWL struct{}

func (indexedLWL) Name() string                          { return "lwl-indexed" }
func (indexedLWL) Assign(_ workload.Job, v WorkView) int { return v.MinWorkHost() }

// indexedCQ routes to the lowest idle host via the freelist, else holds
// centrally. Under CentralFCFS this is record-equivalent to holding every
// job (the toCentral golden policy): a held job drains immediately to the
// same lowest-indexed idle host with the same start instant.
type indexedCQ struct{}

func (indexedCQ) Name() string { return "cq-indexed" }
func (indexedCQ) Assign(_ workload.Job, v View) int {
	if i := v.NextIdleHost(); i >= 0 {
		return i
	}
	return Central
}

func TestKernelGoldenIndexedReplay(t *testing.T) {
	scenarios := []struct {
		golden string
		run    func() *Result
	}{
		{"push-lwl", func() *Result {
			return Run(goldenJobs(42, 3000), Config{Hosts: 3, Policy: indexedLWL{}, KeepRecords: true, OrderCheck: true})
		}},
		{"ties-push-lwl", func() *Result {
			return Run(tieJobs(), Config{Hosts: 2, Policy: indexedLWL{}, KeepRecords: true, OrderCheck: true})
		}},
		{"ps-cancel", func() *Result {
			return RunPS(goldenJobs(46, 1500), Config{Hosts: 2, Policy: indexedLWL{}, KeepRecords: true})
		}},
		{"central-fcfs", func() *Result {
			return Run(goldenJobs(43, 3000), Config{Hosts: 3, Policy: indexedCQ{}, CentralOrder: CentralFCFS, KeepRecords: true})
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", sc.golden+".golden"))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if got := formatRecords(sc.run().Records); got != string(want) {
				t.Fatalf("indexed replay diverged from %s.golden; first lines:\ngot:  %.200s\nwant: %.200s",
					sc.golden, got, want)
			}
		})
	}
}

// TestIndexedSelectionSurvivesEngineReuse interleaves indexed-policy runs
// at different host counts so the pooled engines (sim.Acquire/Release
// inside Run) and the index backing arrays are reused across shrinking and
// regrowing systems; any ghost state — a stale idle bit, a leftover tree
// key — would perturb the replayed record stream.
func TestIndexedSelectionSurvivesEngineReuse(t *testing.T) {
	run := func(hosts int) string {
		return formatRecords(Run(goldenJobs(42, 2000),
			Config{Hosts: hosts, Policy: indexedLWL{}, KeepRecords: true, OrderCheck: true}).Records)
	}
	first5 := run(5)
	first2 := run(2)
	run(7) // grow past both, touching fresh index capacity
	if again := run(5); again != first5 {
		t.Fatal("h=5 run diverged after engine/pool reuse at other host counts")
	}
	if again := run(2); again != first2 {
		t.Fatal("h=2 run diverged after engine/pool reuse at other host counts")
	}
}
