package service

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/streamcache"
)

// reqKey labels one requests_total counter cell.
type reqKey struct {
	endpoint string
	code     int
}

// Metrics aggregates the service's counters: per-endpoint/status request
// counts, a log-bucketed request latency histogram (reusing the
// experiment harness's stats.LogHistogram), and admission/deadline
// counters. Gauges (queue depth, in-flight requests) and cache/pool
// counters live with their owners and are gathered at scrape time by
// writePrometheus. Safe for concurrent use.
type Metrics struct {
	mu           sync.Mutex
	requests     map[reqKey]uint64
	latency      *stats.LogHistogram // request latency in seconds
	latencySum   float64
	latencyCount uint64
	simulations  uint64 // simulations actually run (cache misses that computed)
	rejected     uint64 // 429 admission rejections
	deadlines    uint64 // 503 deadline-exceeded responses
}

// newMetrics builds an empty metrics registry. Latency buckets double per
// bin: sub-millisecond resolution at the bottom, seconds at the top, O(1)
// memory regardless of traffic.
func newMetrics() *Metrics {
	return &Metrics{
		requests: make(map[reqKey]uint64),
		latency:  stats.NewLogHistogram(2),
	}
}

// observe records one finished request.
func (m *Metrics) observe(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	m.requests[reqKey{endpoint, code}]++
	m.latency.Add(seconds)
	m.latencySum += seconds
	m.latencyCount++
	m.mu.Unlock()
}

func (m *Metrics) addSimulation() {
	m.mu.Lock()
	m.simulations++
	m.mu.Unlock()
}

func (m *Metrics) addRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *Metrics) addDeadline() {
	m.mu.Lock()
	m.deadlines++
	m.mu.Unlock()
}

// writePrometheus renders every counter and gauge in Prometheus text
// exposition format. Output order is deterministic (sorted label sets) so
// consecutive scrapes diff cleanly.
func (s *Server) writePrometheus(w io.Writer) {
	m := s.metrics
	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintln(w, "# HELP simd_requests_total Finished HTTP requests by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE simd_requests_total counter")
	for _, k := range keys {
		fmt.Fprintf(w, "simd_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	fmt.Fprintln(w, "# HELP simd_request_seconds Request latency.")
	fmt.Fprintln(w, "# TYPE simd_request_seconds histogram")
	cum := uint64(m.latency.Underflow())
	for _, bin := range m.latency.Bins() {
		cum += uint64(bin.Count)
		fmt.Fprintf(w, "simd_request_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", bin.Hi), cum)
	}
	fmt.Fprintf(w, "simd_request_seconds_bucket{le=\"+Inf\"} %d\n", m.latencyCount)
	fmt.Fprintf(w, "simd_request_seconds_sum %g\n", m.latencySum)
	fmt.Fprintf(w, "simd_request_seconds_count %d\n", m.latencyCount)

	sims, rejected, deadlines := m.simulations, m.rejected, m.deadlines
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP simd_simulations_total Simulations actually executed (cache misses that ran a simulation, on the engine or the direct path).")
	fmt.Fprintln(w, "# TYPE simd_simulations_total counter")
	fmt.Fprintf(w, "simd_simulations_total %d\n", sims)
	fmt.Fprintln(w, "# HELP simd_rejected_total Requests rejected with 429 by admission control.")
	fmt.Fprintln(w, "# TYPE simd_rejected_total counter")
	fmt.Fprintf(w, "simd_rejected_total %d\n", rejected)
	fmt.Fprintln(w, "# HELP simd_deadline_total Requests that hit their deadline and returned 503.")
	fmt.Fprintln(w, "# TYPE simd_deadline_total counter")
	fmt.Fprintf(w, "simd_deadline_total %d\n", deadlines)

	cs := s.cache.Stats()
	fmt.Fprintln(w, "# HELP simd_cache_hits_total Responses served straight from the cache.")
	fmt.Fprintln(w, "# TYPE simd_cache_hits_total counter")
	fmt.Fprintf(w, "simd_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintln(w, "# HELP simd_cache_misses_total Requests that had to compute.")
	fmt.Fprintln(w, "# TYPE simd_cache_misses_total counter")
	fmt.Fprintf(w, "simd_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintln(w, "# HELP simd_cache_joins_total Requests coalesced onto an identical in-flight computation.")
	fmt.Fprintln(w, "# TYPE simd_cache_joins_total counter")
	fmt.Fprintf(w, "simd_cache_joins_total %d\n", cs.Joins)
	fmt.Fprintln(w, "# HELP simd_cache_evictions_total Entries evicted to hold the byte bound.")
	fmt.Fprintln(w, "# TYPE simd_cache_evictions_total counter")
	fmt.Fprintf(w, "simd_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintln(w, "# HELP simd_cache_entries Cached response bodies.")
	fmt.Fprintln(w, "# TYPE simd_cache_entries gauge")
	fmt.Fprintf(w, "simd_cache_entries %d\n", cs.Entries)
	fmt.Fprintln(w, "# HELP simd_cache_bytes Bytes of cached response bodies.")
	fmt.Fprintln(w, "# TYPE simd_cache_bytes gauge")
	fmt.Fprintf(w, "simd_cache_bytes %d\n", cs.Bytes)

	ss := streamcache.Shared.Stats()
	fmt.Fprintln(w, "# HELP simd_streamcache_hits_total Job streams served from the shared stream cache.")
	fmt.Fprintln(w, "# TYPE simd_streamcache_hits_total counter")
	fmt.Fprintf(w, "simd_streamcache_hits_total %d\n", ss.Hits)
	fmt.Fprintln(w, "# HELP simd_streamcache_misses_total Stream requests that generated a new stream.")
	fmt.Fprintln(w, "# TYPE simd_streamcache_misses_total counter")
	fmt.Fprintf(w, "simd_streamcache_misses_total %d\n", ss.Misses)
	fmt.Fprintln(w, "# HELP simd_streamcache_joins_total Stream requests coalesced onto an in-flight generation.")
	fmt.Fprintln(w, "# TYPE simd_streamcache_joins_total counter")
	fmt.Fprintf(w, "simd_streamcache_joins_total %d\n", ss.Joins)
	fmt.Fprintln(w, "# HELP simd_streamcache_evictions_total Streams evicted to hold the byte bound.")
	fmt.Fprintln(w, "# TYPE simd_streamcache_evictions_total counter")
	fmt.Fprintf(w, "simd_streamcache_evictions_total %d\n", ss.Evictions)
	fmt.Fprintln(w, "# HELP simd_streamcache_generations_total Stream generations performed (one per cache miss).")
	fmt.Fprintln(w, "# TYPE simd_streamcache_generations_total counter")
	fmt.Fprintf(w, "simd_streamcache_generations_total %d\n", ss.Generations)
	fmt.Fprintln(w, "# HELP simd_streamcache_entries Cached job streams.")
	fmt.Fprintln(w, "# TYPE simd_streamcache_entries gauge")
	fmt.Fprintf(w, "simd_streamcache_entries %d\n", ss.Entries)
	fmt.Fprintln(w, "# HELP simd_streamcache_bytes Bytes of cached job streams.")
	fmt.Fprintln(w, "# TYPE simd_streamcache_bytes gauge")
	fmt.Fprintf(w, "simd_streamcache_bytes %d\n", ss.Bytes)

	fmt.Fprintln(w, "# HELP simd_queue_depth Admitted requests waiting for a simulation slot.")
	fmt.Fprintln(w, "# TYPE simd_queue_depth gauge")
	fmt.Fprintf(w, "simd_queue_depth %d\n", s.queued.Load())
	fmt.Fprintln(w, "# HELP simd_inflight_requests Requests currently being served.")
	fmt.Fprintln(w, "# TYPE simd_inflight_requests gauge")
	fmt.Fprintf(w, "simd_inflight_requests %d\n", s.inflight.Load())

	acquires, news := sim.PoolStats()
	fmt.Fprintln(w, "# HELP simd_engine_acquires_total Simulation engines handed out by the process-wide pool.")
	fmt.Fprintln(w, "# TYPE simd_engine_acquires_total counter")
	fmt.Fprintf(w, "simd_engine_acquires_total %d\n", acquires)
	fmt.Fprintln(w, "# HELP simd_engine_allocs_total Engines the pool had to allocate fresh (acquires minus reuses).")
	fmt.Fprintln(w, "# TYPE simd_engine_allocs_total counter")
	fmt.Fprintf(w, "simd_engine_allocs_total %d\n", news)
}
