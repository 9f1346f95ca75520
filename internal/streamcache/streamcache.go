// Package streamcache shares retimed job streams across simulation cells.
//
// The paper's methodology is common random numbers: every policy at a load
// point consumes the *same* arrival/size stream so the curves are directly
// comparable. The sweep drivers therefore call trace.JobsAtLoad with
// identical arguments once per (policy, load) cell — P regenerations of one
// multi-megabyte []workload.Job per load point. This package generates each
// distinct stream exactly once and hands the same backing slice, read-only,
// to every consumer.
//
// Safety rests on two contracts. First, JobsAtLoad is a pure function of
// (trace content, load, hosts, poisson, seed); trace.Identity stands in for
// the content, so a Key pins the stream bytes exactly and cache hits are
// indistinguishable from regeneration. Second, consumers never write the
// slice: server.Run, server.RunPS and tags.Simulate document (and
// server.TestReadOnlyContract checks) that job slices are read-only, so
// one slice can feed many concurrent simulations without copies.
//
// A Cache holds the streams in a byte-bounded memo.Cache LRU whose
// concurrent requests for one key collapse single-flight, so a 16-worker
// sweep still generates once.
package streamcache

import (
	"sita/internal/memo"
	"sita/internal/trace"
	"sita/internal/workload"
)

// bytesPerJob is the in-memory size of one workload.Job (three 8-byte
// fields), used to charge entries against the byte bound.
const bytesPerJob = 24

// DefaultMaxBytes bounds the shared cache: 256 MiB holds on the order of
// a hundred 55k-job streams, comfortably more than one full figure sweep
// touches, while staying far below experiment peak memory.
const DefaultMaxBytes = 256 << 20

// Key identifies one retimed stream: the trace's content identity plus the
// JobsAtLoad retiming parameters.
type Key struct {
	Trace   trace.Identity
	Load    float64
	Hosts   int
	Poisson bool
	Seed    uint64
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Hits        uint64 // served from the LRU
	Misses      uint64 // triggered a generation
	Joins       uint64 // waited on another goroutine's generation
	Evictions   uint64 // entries dropped to respect MaxBytes
	Generations uint64 // JobsAtLoad retimings performed; equals Misses
	Entries     int
	Bytes       int64
	MaxBytes    int64
}

// Cache is a byte-bounded, single-flight stream cache. The zero value is
// not usable; construct with New.
type Cache struct {
	streams *memo.Cache[Key, []workload.Job]

	// testHookGenerate, when non-nil, is invoked once per actual stream
	// generation (inside the single-flight critical path, outside the
	// cache lock) — tests use it to count and to widen race windows.
	testHookGenerate func(Key)
}

// Shared is the process-wide cache used by the experiment drivers, the
// sweep command, and the simd service.
var Shared = New(DefaultMaxBytes)

// New returns a cache bounded to maxBytes of job data (<= 0 disables
// storage: every lookup regenerates, which keeps behavior correct while
// making the cache a no-op).
func New(maxBytes int64) *Cache {
	return &Cache{
		streams: memo.New[Key](maxBytes, func(jobs []workload.Job) int64 {
			return int64(len(jobs)) * bytesPerJob
		}),
	}
}

// SetMaxBytes rebounds the cache, evicting as needed; 0 turns storage off
// and drops every stored stream. Safe for concurrent use.
func (c *Cache) SetMaxBytes(n int64) { c.streams.SetMaxCost(n) }

// JobsAtLoad returns tr's jobs retimed to the target load, generating at
// most once per distinct key and sharing the result. The returned slice is
// read-only — callers must treat it exactly as they treat a Trace's Jobs
// (see the immutability contract in internal/trace). Panics, like
// trace.JobsAtLoad, if load is outside (0, 1).
func (c *Cache) JobsAtLoad(tr *trace.Trace, load float64, hosts int, poisson bool, seed uint64) []workload.Job {
	// The key is built once, in place: at 144 bytes, each copy shows on
	// the hit path.
	key := Key{Trace: tr.Identity(), Load: load, Hosts: hosts, Poisson: poisson, Seed: seed}
	jobs, _, err := c.streams.Do(key, func() ([]workload.Job, error) {
		if c.testHookGenerate != nil {
			c.testHookGenerate(key)
		}
		return tr.JobsAtLoad(key.Load, key.Hosts, key.Poisson, key.Seed), nil
	})
	if err != nil { // the generation this call joined panicked
		panic(err)
	}
	return jobs
}

// Stats snapshots the stream counters.
func (c *Cache) Stats() Stats {
	s := c.streams.Stats()
	return Stats{
		Hits:        s.Hits,
		Misses:      s.Misses,
		Joins:       s.Joins,
		Evictions:   s.Evictions,
		Generations: s.Misses,
		Entries:     s.Entries,
		Bytes:       s.Cost,
		MaxBytes:    s.MaxCost,
	}
}
