// Package memo is the one memoization primitive of the repository: a
// cost-bounded LRU cache with single-flight computation.
//
// Every memo layer is an instance of Cache: simd's response bodies and
// generated workloads (internal/service), retimed job streams and trace
// statistics (internal/streamcache), SITA cutoff searches
// (internal/core), and the sweep's generated traces and simulated cells
// (internal/experiment). Values are computed at most once per key across
// concurrent callers and then shared, so a cached value must be treated
// as read-only by everyone who receives it.
package memo

import (
	"errors"
	"sync"
)

// Status reports how Do obtained its value. The strings double as simd's
// X-Cache response header.
type Status string

// Do outcomes.
const (
	// Hit: the value came straight from the cache.
	Hit Status = "hit"
	// Miss: this call ran compute (and, on success, stored the value).
	Miss Status = "miss"
	// Join: another call was already computing the key; this one waited
	// for its result instead of computing again.
	Join Status = "join"
)

// ErrPanicked is the error joiners receive when the compute they waited
// on panicked. The panic itself continues in the computing goroutine.
var ErrPanicked = errors.New("memo: compute panicked")

// entry is one stored value, linked into the recency list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// flight is one in-progress computation other callers may join.
type flight[V any] struct {
	done chan struct{} // closed when val and err are final
	val  V
	err  error
}

// Cache maps keys to values computed on demand. Stored values are bounded
// by total cost, evicting least-recently-used entries first; a value that
// costs more than the whole bound is returned but never stored. At most
// one compute per key runs at a time, and concurrent callers for that key
// wait for it and receive the same value. Errors are never stored: a
// failed compute is forgotten, so the next call retries. Safe for
// concurrent use; the lock is never held while compute runs.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	cost     func(V) int64
	maxCost  int64
	total    int64
	items    map[K]*entry[K, V]
	root     entry[K, V] // sentinel: root.next is the most recent entry
	inflight map[K]*flight[V]

	hits, misses, joins, evictions uint64
}

// New returns a cache whose stored values cost at most maxCost in total.
// cost prices one value; nil prices every value at 1, which makes maxCost
// an entry count. maxCost <= 0 stores nothing but still coalesces
// concurrent computes.
func New[K comparable, V any](maxCost int64, cost func(V) int64) *Cache[K, V] {
	c := &Cache[K, V]{
		cost:     cost,
		maxCost:  maxCost,
		items:    make(map[K]*entry[K, V]),
		inflight: make(map[K]*flight[V]),
	}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Do returns the value for key, calling compute at most once across
// concurrent callers of the same key.
func (c *Cache[K, V]) Do(key K, compute func() (V, error)) (V, Status, error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.hits++
		if c.root.next != e {
			c.unlink(e)
			c.pushFront(e)
		}
		v := e.val
		c.mu.Unlock()
		return v, Hit, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.joins++
		c.mu.Unlock()
		<-f.done
		return f.val, Join, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	c.run(key, f, compute)
	return f.val, Miss, f.err
}

// run computes f's value and publishes it, also when compute panics, so
// that joiners are released and the key can be computed again.
func (c *Cache[K, V]) run(key K, f *flight[V], compute func() (V, error)) {
	defer func() {
		cost := int64(1)
		if c.cost != nil && f.err == nil {
			cost = c.cost(f.val)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.store(key, f.val, cost)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.err = ErrPanicked // overwritten when compute returns
	f.val, f.err = compute()
}

// store inserts a freshly computed value and evicts down to the bound.
// Caller holds c.mu.
func (c *Cache[K, V]) store(key K, v V, cost int64) {
	if c.maxCost <= 0 || cost > c.maxCost {
		return
	}
	e := &entry[K, V]{key: key, val: v, cost: cost}
	c.items[key] = e
	c.pushFront(e)
	c.total += cost
	c.evict()
}

// evict drops least-recently-used entries until the bound holds. Caller
// holds c.mu.
func (c *Cache[K, V]) evict() {
	for c.root.prev != &c.root && (c.total > c.maxCost || c.maxCost <= 0) {
		e := c.root.prev
		c.unlink(e)
		delete(c.items, e.key)
		c.total -= e.cost
		c.evictions++
	}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.next.prev = e
	c.root.next = e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// SetMaxCost rebounds the cache, evicting as needed.
func (c *Cache[K, V]) SetMaxCost(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxCost = n
	c.evict()
}

// Clear drops every stored value. Computes in flight are unaffected and
// store their values when they finish; the counters are kept.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.items)
	c.root.next, c.root.prev = &c.root, &c.root
	c.total = 0
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      uint64 // served from the cache
	Misses    uint64 // ran compute
	Joins     uint64 // waited on another caller's compute
	Evictions uint64 // entries dropped to hold the bound
	Entries   int
	Cost      int64 // total cost of the stored values
	MaxCost   int64
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Joins: c.joins, Evictions: c.evictions,
		Entries: len(c.items), Cost: c.total, MaxCost: c.maxCost,
	}
}
