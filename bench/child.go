package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"sita/internal/experiment"
	"sita/internal/sim"
	"sita/internal/streamcache"
)

// sizes fixes how much work one repetition does.
type sizes struct {
	drivers      []string // experiment ids paper-sweep runs, in order
	cutoffHosts  []int    // host counts of the timed multi-cutoff searches
	cellJobs     int      // jobs in the cells' C90 stream
	directPasses int      // passes over the cells per repetition
	enginePasses int
	simdJobs     int // jobs per simulate request; 0 is the profile's own length
	hitRounds    int // rounds over the catalog policies per simd-hit repetition
	missRounds   int // the same for simd-miss
	ladderStep   time.Duration
}

func fullSizes() sizes {
	return sizes{
		drivers: experiment.IDs(), cutoffHosts: []int{4, 6, 8},
		cellJobs: 200_000, directPasses: 40, enginePasses: 8,
		hitRounds: 2000, missRounds: 11, ladderStep: time.Second,
	}
}

// toySizes keep a repetition of every workload well under a second for the
// smoke test.
func toySizes() sizes {
	return sizes{
		drivers: []string{"fig8"}, cutoffHosts: []int{4},
		cellJobs: 2_000, directPasses: 1, enginePasses: 1,
		simdJobs: 2_000, hitRounds: 6, missRounds: 2, ladderStep: 200 * time.Millisecond,
	}
}

// childEnv is what one repetition runs with.
type childEnv struct {
	kind  string
	seed  uint64
	sz    sizes
	root  string    // repository root: results/ and bench/testdata
	tr    *tracer   // nil when untraced
	t0    time.Time // when the parent started this process
	setup time.Duration
	meter meter
	segs  []segment
	// counts holds the process-wide counters as the timed operations
	// ended, before output checks add to them.
	counts map[string]float64
}

// segment is a wall interval that operation op spent in the program.
type segment struct {
	op         int
	start, end time.Time
}

// startTiming marks the first timed operation; set-up time ends here. It
// then calibrates the reference task, outside set-up and every operation.
func (e *childEnv) startTiming() {
	e.setup = now().Sub(e.t0)
	e.meter.calibrate()
}

// timed runs fn as part of operation op (operations are numbered from 0)
// and returns its wall time. Between segments it times the reference task
// when one is due, so an operation made of several segments (a sweep of
// drivers, a pass over cells) is sampled along the way.
func (e *childEnv) timed(op int, fn func()) time.Duration {
	start := now()
	fn()
	end := now()
	e.segs = append(e.segs, segment{op, start, end})
	e.meter.tick()
	return end.Sub(start)
}

// stopTiming marks the end of the timed operations and reads the
// process-wide counters, so output checks that follow do not count.
func (e *childEnv) stopTiming() {
	e.meter.sample()
	e.counts = map[string]float64{}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		e.counts["go.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	st := streamcache.Shared.Stats()
	e.counts["streamcache.generations"] = float64(st.Generations)
	e.counts["streamcache.hits"] = float64(st.Hits)
	e.counts["streamcache.misses"] = float64(st.Misses)
	e.counts["streamcache.evictions"] = float64(st.Evictions)
	acquires, news := sim.PoolStats()
	e.counts["sim.pool_acquires"] = float64(acquires)
	e.counts["sim.pool_news"] = float64(news)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.counts["go.alloc_mb"] = float64(m.TotalAlloc) / (1 << 20)
	e.counts["go.gc_cycles"] = float64(m.NumGC)
}

// childResult is one repetition's report to the parent. Times without
// "wall" are at reference speed (see speed.go).
type childResult struct {
	SetupS     float64            `json:"setup_s"`
	WallSetupS float64            `json:"wall_setup_s"`
	OpsMS      []float64          `json:"ops_ms"` // one per timed operation
	WallOpsMS  []float64          `json:"wall_ops_ms"`
	RefMS      []float64          `json:"ref_ms"` // every timing of the reference task
	Attempted  int                `json:"attempted"`
	Failures   []string           `json:"failures,omitempty"`
	Checked    string             `json:"checked"`           // what the outputs were compared with
	Outputs    map[string]string  `json:"outputs,omitempty"` // digests repetitions must agree on
	Layer      map[string]float64 `json:"layer"`
	Spans      []span             `json:"spans,omitempty"`

	started time.Time // when the parent started the child
}

func newChildResult() *childResult {
	return &childResult{Outputs: map[string]string{}, Layer: map[string]float64{}}
}

// check counts one verified operation and records it if it failed.
func (r *childResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runChild runs one repetition of kind (a workload, or "probes") and
// writes its result to stdout as JSON.
func runChild(kind string, env *childEnv, stdout io.Writer) error {
	var res *childResult
	var err error
	switch kind {
	case "paper-sweep":
		res, err = runSweep(env)
	case "cells-direct":
		res, err = runCells(env, directCells, env.sz.directPasses)
	case "cells-engine":
		res, err = runCells(env, engineCells, env.sz.enginePasses)
	case "simd-hit":
		res, err = runSimd(env, false)
	case "simd-miss":
		res, err = runSimd(env, true)
	case "probes":
		res, err = runProbes(env)
	default:
		err = fmt.Errorf("unknown workload %q", kind)
	}
	if err != nil {
		return err
	}
	if kind != "probes" {
		env.report(res)
	}
	for k, v := range env.counts {
		res.Layer[k] = v
	}
	res.Spans = env.tr.collected()
	return json.NewEncoder(stdout).Encode(res)
}

// report adds the set-up time and each operation's time, summed over its
// segments, in wall time and at reference speed.
func (e *childEnv) report(res *childResult) {
	res.WallSetupS = e.setup.Seconds()
	res.SetupS = res.WallSetupS * e.meter.setupScale()
	for _, s := range e.segs {
		for len(res.OpsMS) <= s.op {
			res.OpsMS = append(res.OpsMS, 0)
			res.WallOpsMS = append(res.WallOpsMS, 0)
		}
		res.OpsMS[s.op] += e.meter.scaled(s.start, s.end)
		res.WallOpsMS[s.op] += ms(s.end.Sub(s.start))
	}
	res.RefMS = e.meter.refMS()
}
