package server

import (
	"testing"

	"sita/internal/stats"
	"sita/internal/workload"
)

// sitaClass labels a size the way a SITA design's Classify does: the
// index of the first cutoff it does not exceed.
func sitaClass(size float64) int {
	for i, c := range [...]float64{10, 100, 1000} {
		if size <= c {
			return i
		}
	}
	return 3
}

// A heldDirectCase is one policy the direct runner's held core replays
// on 32 hosts, with or without a size classifier.
type heldDirectCase struct {
	name      string
	pol       WorkPolicy
	sizeClass func(float64) int
}

// heldDirectCases are a state-blind policy (a scripted round-robin, which
// never builds the work index), one that reads host work
// (Least-Work-Left through the view's index), and the scripted
// round-robin with a size classifier, whose class tally the emission loop
// feeds inline, each for a feed of n jobs.
func heldDirectCases(n int) []heldDirectCase {
	script := make([]int, n)
	for i := range script {
		script[i] = i % heldHosts
	}
	return []heldDirectCase{
		{"oblivious", &scripted{hosts: script}, nil},
		{"work-only", indexedLWL{}, nil},
		{"classes", &scripted{hosts: script}, sitaClass},
	}
}

const heldHosts = 32

// heldDirect takes a runner from the pool and returns a replay of jobs on
// it, the Result every replay folds into, and the release that returns
// the runner. The replay is the direct path's steady-state core — pooled
// scratch, assignment pass, tournament-merge emission — without the
// per-run Result construction.
func heldDirect(jobs []workload.Job, c heldDirectCase) (replay func(), res *Result, release func()) {
	res = &Result{
		PerHostJobs: make([]int64, heldHosts),
		PerHostWork: make([]float64, heldHosts),
	}
	if c.sizeClass != nil {
		res.Classes = stats.NewClassTally()
	}
	d := directPool.Get().(*directRunner)
	d.res = res
	d.sizeClass = c.sizeClass
	replay = func() {
		d.setup(len(jobs), heldHosts, c.pol)
		d.replay(jobs)
	}
	return replay, res, d.release
}

// BenchmarkDirectReplayCore times the direct path's held core on a
// 100k-job feed (see heldDirect). TestReadOnlyContract holds the same
// core to zero allocations per replay.
func BenchmarkDirectReplayCore(b *testing.B) {
	jobs := goldenJobs(48, 100000)
	for _, c := range heldDirectCases(len(jobs)) {
		b.Run(c.name, func(b *testing.B) {
			replay, res, release := heldDirect(jobs, c)
			defer release()
			replay()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay()
			}
			b.StopTimer()
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			if res.Slowdown.Count() == 0 {
				b.Fatal("no jobs observed")
			}
			if c.sizeClass != nil && len(res.Classes.Classes()) < 2 {
				b.Fatalf("class tally holds %v, want several classes", res.Classes.Classes())
			}
		})
	}
}
