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
// slice: server.Run and server.RunPS document (and //sim:readonly enforces)
// that job slices are read-only, so one slice can feed many concurrent
// simulations without copies. Traces without an identity (zero
// trace.Identity, e.g. hand-built literals) bypass the cache and regenerate.
//
// Entries are kept in a byte-bounded LRU; concurrent requests for the same
// key are collapsed single-flight so a 16-worker sweep still generates once.
package streamcache

import (
	"container/list"
	"sync"

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

// entry is one cached stream.
type entry struct {
	key  Key
	jobs []workload.Job
}

// flight tracks an in-progress generation so concurrent requests for the
// same key wait for one result instead of regenerating.
type flight struct {
	done chan struct{}
	jobs []workload.Job
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Hits        uint64 // served from the LRU
	Misses      uint64 // triggered a generation
	Joins       uint64 // waited on another goroutine's generation
	Evictions   uint64 // entries dropped to respect MaxBytes
	Bypasses    uint64 // identity-less traces generated directly
	Generations uint64 // total JobsAtLoad invocations performed
	Entries     int
	Bytes       int64
	MaxBytes    int64
}

// Cache is a byte-bounded, single-flight stream cache. The zero value is
// not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // of *entry, front = most recent
	items    map[Key]*list.Element
	inflight map[Key]*flight
	bypass   bool

	hits, misses, joins, evictions, bypasses, generations uint64

	statsMu    sync.Mutex
	traceStats map[trace.Identity]trace.Stats

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
		maxBytes:   maxBytes,
		lru:        list.New(),
		items:      make(map[Key]*list.Element),
		inflight:   make(map[Key]*flight),
		traceStats: make(map[trace.Identity]trace.Stats),
	}
}

// SetMaxBytes rebounds the cache, evicting as needed. Safe for concurrent
// use.
func (c *Cache) SetMaxBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = n
	c.evictLocked()
}

// SetBypass toggles bypass mode: when on, every call regenerates and the
// stored entries are dropped. Used by tests to compare cache-on vs
// cache-off output and by operators to rule the cache out.
func (c *Cache) SetBypass(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bypass = on
	if on {
		c.lru.Init()
		c.items = make(map[Key]*list.Element)
		c.bytes = 0
	}
}

// JobsAtLoad returns tr's jobs retimed to the target load, generating at
// most once per distinct key and sharing the result. The returned slice is
// read-only — callers must treat it exactly as they treat a Trace's Jobs
// (see the immutability contract in internal/trace). Panics, like
// trace.JobsAtLoad, if load is outside (0, 1).
func (c *Cache) JobsAtLoad(tr *trace.Trace, load float64, hosts int, poisson bool, seed uint64) []workload.Job {
	id, ok := tr.Identity()
	c.mu.Lock()
	if !ok || c.bypass {
		c.bypasses++
		c.generations++
		hook := c.testHookGenerate
		c.mu.Unlock()
		if hook != nil {
			hook(Key{Trace: id, Load: load, Hosts: hosts, Poisson: poisson, Seed: seed})
		}
		return tr.JobsAtLoad(load, hosts, poisson, seed)
	}
	key := Key{Trace: id, Load: load, Hosts: hosts, Poisson: poisson, Seed: seed}
	for {
		if el, hit := c.items[key]; hit {
			c.hits++
			c.lru.MoveToFront(el)
			jobs := el.Value.(*entry).jobs
			c.mu.Unlock()
			return jobs
		}
		if fl, busy := c.inflight[key]; busy {
			c.joins++
			c.mu.Unlock()
			<-fl.done
			return fl.jobs
		}
		break
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.generations++
	hook := c.testHookGenerate
	c.mu.Unlock()

	if hook != nil {
		hook(key)
	}
	jobs := tr.JobsAtLoad(load, hosts, poisson, seed)
	fl.jobs = jobs

	c.mu.Lock()
	delete(c.inflight, key)
	sz := int64(len(jobs)) * bytesPerJob
	if !c.bypass && sz <= c.maxBytes {
		el := c.lru.PushFront(&entry{key: key, jobs: jobs})
		c.items[key] = el
		c.bytes += sz
		c.evictLocked()
	}
	c.mu.Unlock()
	close(fl.done)
	return jobs
}

// evictLocked drops least-recently-used entries until the byte bound is
// respected. Caller holds c.mu.
func (c *Cache) evictLocked() {
	for c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := c.lru.Remove(el).(*entry)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.jobs)) * bytesPerJob
		c.evictions++
	}
}

// TraceStats returns tr.ComputeStats(), memoized by trace identity. This
// replaces pointer-keyed stats caches: two regenerations of the same
// profile+seed share one entry, and distinct traces can never collide even
// if an old *Trace's address is reused. Identity-less traces compute
// directly.
func (c *Cache) TraceStats(tr *trace.Trace) trace.Stats {
	id, ok := tr.Identity()
	if !ok {
		return tr.ComputeStats()
	}
	c.statsMu.Lock()
	s, hit := c.traceStats[id]
	c.statsMu.Unlock()
	if hit {
		return s
	}
	s = tr.ComputeStats()
	c.statsMu.Lock()
	c.traceStats[id] = s
	c.statsMu.Unlock()
	return s
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Joins:       c.joins,
		Evictions:   c.evictions,
		Bypasses:    c.bypasses,
		Generations: c.generations,
		Entries:     c.lru.Len(),
		Bytes:       c.bytes,
		MaxBytes:    c.maxBytes,
	}
}
