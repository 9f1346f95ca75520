package service

import "sita/internal/memo"

// CacheStatus classifies how a request's response body was obtained.
type CacheStatus = memo.Status

// Cache outcomes, also exposed as the X-Cache response header. The
// third, memo.Join, marks a request that waited for an identical one
// already computing instead of re-running the simulation.
const (
	// CacheHit: the body came straight from the cache.
	CacheHit = memo.Hit
	// CacheMiss: this request ran the computation (and, on success,
	// populated the cache).
	CacheMiss = memo.Miss
)

// Cache is a byte-bounded LRU of response bodies keyed by canonical
// request, with single-flight request coalescing (a memo.Cache): at most
// one computation per key runs at a time, concurrent identical requests
// wait for it, and every caller receives the exact same byte slice — the
// property that makes "deterministic simulation" visible as
// byte-identical HTTP responses.
//
// Errors are never cached: a timed-out or failed computation is forgotten
// so the next identical request retries. Safe for concurrent use.
type Cache struct {
	bodies *memo.Cache[string, []byte]
}

// NewCache returns a cache bounded to maxBytes of body data. maxBytes <= 0
// disables storage entirely while keeping request coalescing.
func NewCache(maxBytes int64) *Cache {
	return &Cache{memo.New[string](maxBytes, func(body []byte) int64 { return int64(len(body)) })}
}

// Do returns the response body for key, computing it at most once across
// concurrent callers. The caller must treat the returned body as read-only:
// it is shared with the cache and with concurrent requests.
func (c *Cache) Do(key string, compute func() ([]byte, error)) ([]byte, CacheStatus, error) {
	return c.bodies.Do(key, compute)
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits, Misses, Joins, Evictions uint64
	Entries                        int
	Bytes                          int64
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	s := c.bodies.Stats()
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses, Joins: s.Joins, Evictions: s.Evictions,
		Entries: s.Entries, Bytes: s.Cost,
	}
}
