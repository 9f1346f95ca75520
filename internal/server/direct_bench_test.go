package server

import (
	"reflect"
	"runtime"
	"testing"

	"sita/internal/stats"
)

// allocsIn runs f once and reports how many heap allocations were made on
// f's own call stack. testing.AllocsPerRun counts every allocation in the
// process, and the runtime allocates off f's stack now and then: the
// background scavenger, re-arming its sleep timer, can grow a per-P timer
// heap (runtime.bgscavenge → timers.addHeap, one object), which failed
// this benchmark's allocation-free replay in a few runs out of a hundred.
// Here the memory profiler, at rate 1 for the call, records every
// allocation with its stack, and only the stacks through f are counted.
func allocsIn(f func()) int64 {
	name := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := profiledAllocs(name)
	f()
	return profiledAllocs(name) - before
}

// profiledAllocs publishes the memory profile, which takes two GC cycles,
// and sums the allocations whose stack passes through the named function.
func profiledAllocs(fn string) int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for _, r := range recs {
		for frames := runtime.CallersFrames(r.Stack()); ; {
			fr, more := frames.Next()
			if fr.Function == fn {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

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

// BenchmarkDirectReplayCore isolates the direct path's steady-state inner
// loop — pooled scratch, assignment pass, tournament-merge emission — from
// the per-run Result construction, for a state-blind policy (a scripted
// round-robin, which never builds the work index), one that reads host
// work (Least-Work-Left through the view's index), and the scripted
// round-robin with a size classifier, whose class tally the emission loop
// feeds inline. It pins the //sim:noalloc contract empirically: after the
// first replay grows the scratch arrays (and creates the class streams),
// a replay must not allocate — the benchmark fails if one does (counted by
// allocsIn, on the replay's own stack), so even a one-iteration smoke run
// holds every case to 0 allocs/op.
func BenchmarkDirectReplayCore(b *testing.B) {
	const hosts = 32
	jobs := goldenJobs(48, 100000)
	script := make([]int, len(jobs))
	for i := range script {
		script[i] = i % hosts
	}
	for _, c := range []struct {
		name      string
		pol       WorkPolicy
		sizeClass func(float64) int
	}{
		{"oblivious", &scripted{hosts: script}, nil},
		{"work-only", indexedLWL{}, nil},
		{"classes", &scripted{hosts: script}, sitaClass},
	} {
		b.Run(c.name, func(b *testing.B) {
			res := &Result{
				PerHostJobs: make([]int64, hosts),
				PerHostWork: make([]float64, hosts),
			}
			if c.sizeClass != nil {
				res.Classes = stats.NewClassTally()
			}
			d := directPool.Get().(*directRunner)
			defer d.release()
			d.res = res
			d.sizeClass = c.sizeClass
			replay := func() {
				d.setup(len(jobs), hosts, c.pol)
				d.replay(jobs)
			}
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
			if allocs := allocsIn(replay); allocs != 0 {
				b.Fatalf("steady-state replay allocated %v times", allocs)
			}
		})
	}
}
