package server

import (
	"testing"
)

// BenchmarkDirectReplayCore isolates the direct path's steady-state inner
// loop — pooled scratch, assignment pass, tournament-merge emission — from
// the per-run Result construction, for a state-blind policy (a scripted
// round-robin, which never builds the work index) and one that reads host
// work (Least-Work-Left through the view's index). It pins the //sim:noalloc
// contract empirically: after the first replay grows the scratch arrays,
// a replay must not allocate — the benchmark fails if one does, so even a
// one-iteration smoke run holds both cases to 0 allocs/op.
func BenchmarkDirectReplayCore(b *testing.B) {
	const hosts = 32
	jobs := goldenJobs(48, 100000)
	script := make([]int, len(jobs))
	for i := range script {
		script[i] = i % hosts
	}
	for _, c := range []struct {
		name string
		pol  Policy
	}{
		{"oblivious", &scripted{hosts: script}},
		{"work-only", workLWL{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			res := &Result{
				PerHostJobs: make([]int64, hosts),
				PerHostWork: make([]float64, hosts),
			}
			d := directPool.Get().(*directRunner)
			defer d.release()
			d.res = res
			replay := func() {
				d.setup(len(jobs), hosts, c.pol)
				d.replay(jobs)
			}
			replay()
			if allocs := testing.AllocsPerRun(1, replay); allocs != 0 {
				b.Fatalf("steady-state replay allocated %v times", allocs)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay()
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			if res.Slowdown.Count() == 0 {
				b.Fatal("no jobs observed")
			}
		})
	}
}
