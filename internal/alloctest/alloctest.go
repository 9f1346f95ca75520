// Package alloctest counts the heap allocations a function makes on its
// own call stack, for the tests that hold the simulator's allocation
// contract: a run allocates no more objects on a feed twice as long, and
// a reused pooled core allocates none at all.
package alloctest

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// AllocsIn runs f once and reports how many heap objects were allocated
// on f's own call stack. testing.AllocsPerRun counts every allocation in
// the process, and the runtime allocates off f's stack now and then: the
// background scavenger, re-arming its sleep timer, can grow a per-P timer
// heap (runtime.bgscavenge → timers.addHeap, one object), which failed
// an allocation-free check in a few runs out of a hundred. Here the
// memory profiler, at rate 1 for the call, records every allocation with
// its stack, and only the stacks through f are counted.
//
// Three things made identical runs of f read different counts, by one
// object now and then, on a loaded machine:
//   - a collection during f empties every sync.Pool, so a Put at the end
//     of the run allocates the pool's per-P array again. No collection
//     starts on its own while AllocsIn runs;
//   - the profiler misses a pointer-free object under 16 bytes that is
//     packed into its P's current tiny block, and whether a block has
//     room depends on which P f runs on. Packed objects are added from
//     the runtime's process-wide count; f's are the only ones the tests
//     make while it runs;
//   - the runtime's type-switch caches grow at random (see counted),
//     so their allocations are not counted.
//
// The collections before f also empty every sync.Pool, so a pooled
// object f takes is a fresh one: hold a core outside f to measure its
// reuse.
func AllocsIn(f func()) int64 {
	name := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	tiny := []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	count := func() int64 {
		n := profiledAllocs(name) // its collections flush every P's tiny count
		metrics.Read(tiny)
		return n + int64(tiny[0].Value.Uint64())
	}
	before := count()
	f()
	return count() - before
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
		if counted(r.Stack(), fn) {
			total += r.AllocObjects
		}
	}
	return total
}

// counted reports whether an allocation with the given stack was made on
// fn's stack and is not a runtime type cache's. The runtime grows a type
// switch's or type assertion's cache of dynamic types at random, on about
// one miss in a thousand, so such an allocation lands in one run and not
// the next; the cache is bounded by the types its site sees.
func counted(stack []uintptr, fn string) bool {
	for frames := runtime.CallersFrames(stack); ; {
		fr, more := frames.Next()
		switch fr.Function {
		case fn:
			return true
		case "runtime.interfaceSwitch", "runtime.typeAssert":
			return false
		}
		if !more {
			return false
		}
	}
}
