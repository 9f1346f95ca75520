// Package runner is the concurrent experiment-execution engine: a bounded
// worker pool that fans independent simulation cells (one server.Run per
// (policy, load, replication) tuple) out across CPUs and collects their
// results in submission order.
//
// Determinism is the package's contract. A cell's random seed must be a
// pure function of the cell's coordinates — derived before fan-out, e.g.
// with CellSeed — never of scheduling, worker identity, or completion
// order. Under that discipline Map returns bit-identical results for any
// worker count, so a parallel sweep is a drop-in replacement for the
// sequential loop it accelerates: same tables, same CSV bytes, just
// faster wall-clock.
package runner

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes a Map call.
type Options struct {
	// Workers bounds the number of concurrently executing cells.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called after each cell completes with the
	// number of cells done so far and the total. Calls are serialized, but
	// arrive in completion order, not submission order.
	Progress func(done, total int)
}

// workers resolves the effective worker count for n cells. The machine's
// GOMAXPROCS only sizes the worker pool, and cell results merge by index,
// so output is byte-identical at any worker count (the determinism tests
// pin exactly this).
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		//lint:allow nowallclock worker-pool sizing; results merge in index order at any worker count
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Map runs fn over every item on a bounded pool of workers and returns the
// results in item order. fn receives the item's index and the item; it is
// called exactly once per item, from at most `workers` goroutines at a
// time. All items run even if some fail; the returned error joins every
// per-item error in item order (nil when all succeed).
//
// fn must not share mutable state across items — each cell owns its
// policy instance, RNG, and Result.
func Map[In, Out any](workers int, items []In, fn func(i int, item In) (Out, error)) ([]Out, error) {
	return MapOpts(Options{Workers: workers}, items, fn)
}

// MapOpts is Map with explicit options.
func MapOpts[In, Out any](opts Options, items []In, fn func(i int, item In) (Out, error)) ([]Out, error) {
	n := len(items)
	out := make([]Out, n)
	errs := make([]error, n)
	if n == 0 {
		return out, nil
	}

	workers := opts.workers(n)
	if workers <= 1 {
		// Sequential fast path: no goroutines, no synchronization. The
		// parallel path below must produce identical out/errs slices.
		for i, item := range items {
			out[i], errs[i] = fn(i, item)
			if opts.Progress != nil {
				opts.Progress(i+1, n)
			}
		}
		return out, errors.Join(errs...)
	}

	var (
		next atomic.Int64 // next unclaimed cell index
		done int          // completed cells, for progress reporting; guarded by mu
		mu   sync.Mutex   // serializes Progress callbacks, so done reaches them in order
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i, items[i])
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}
