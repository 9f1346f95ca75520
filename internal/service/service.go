// Package service turns the deterministic simulation library into a
// long-running HTTP serving stack: request parsing and validation on top
// of internal/catalog, a canonical-request LRU cache with single-flight
// coalescing (identical requests are simulated exactly once and answered
// with byte-identical bodies), bounded-concurrency admission with
// backpressure (429 + Retry-After once the wait queue is full),
// per-request deadlines wired into the simulation's cooperative cancel
// probe on every path (503 on expiry, no leaked engines), graceful drain
// (admitted requests complete, new ones are refused), and an
// observability surface: /healthz, Prometheus-text /metrics, expvar,
// pprof, and structured JSON access logs.
//
// Both of the package's memos are memo.Cache instances: the response
// cache (byte-bounded, Config.CacheBytes) and the workload memo (generated
// traces by profile, seed and jobs cap, bounded to memoCap entries).
//
// Concurrency contract: a Server is safe for arbitrary concurrent
// requests. Simulations themselves stay single-goroutine — concurrency
// enters only through the admission semaphore, and every simulation cell
// owns its engine (one scoped sim.Run), policy instance, and Result, the
// same discipline internal/runner enforces for sweeps. Wall-clock time is
// confined to serving concerns (latency metrics, deadlines, Retry-After);
// simulated time still advances only through sim.Engine, which is why a
// cached body stays valid forever.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sita"
	"sita/internal/memo"
)

// Config tunes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// MaxConcurrent bounds simultaneously executing simulations
	// (default: GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a simulation slot beyond
	// MaxConcurrent; requests arriving past the bound are refused with
	// 429 (default 64; negative means no waiting at all).
	MaxQueue int
	// CacheBytes bounds the response cache (default 64 MiB; negative
	// disables caching while keeping request coalescing).
	CacheBytes int64
	// MaxJobs rejects requests asking to simulate more jobs than this
	// (default 2,000,000): the per-request memory and latency bound.
	MaxJobs int
	// DefaultTimeout applies when a request does not set timeout_ms
	// (default 30s). MaxTimeout caps what a request may ask for
	// (default 120s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// AccessLog, when non-nil, receives one JSON line per finished
	// request. Writes are serialized.
	AccessLog io.Writer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		//lint:allow nowallclock admission-slot sizing; responses do not depend on how many simulations run at once
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2_000_000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	return c
}

// Server is the simd HTTP service. Build one with New, expose
// Handler() on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg       Config
	cache     *Cache
	metrics   *Metrics
	workloads *memo.Cache[wlKey, *sita.Workload]
	mux       *http.ServeMux

	sem      chan struct{} // simulation slots
	queued   atomic.Int64  // requests waiting for a slot
	inflight atomic.Int64  // requests currently being served

	drainMu  sync.RWMutex // guards draining against in-flight tracking
	draining bool
	wg       sync.WaitGroup // in-flight requests

	logMu sync.Mutex // serializes AccessLog writes

	// testHookAdmitted, when non-nil, runs inside every admitted
	// simulation after its slot is claimed and before the engine starts.
	// Tests use it to hold simulations open at a deterministic point;
	// production paths leave it nil.
	testHookAdmitted func()
}

// New builds a Server from cfg (zero-value fields get defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheBytes),
		metrics:   newMetrics(),
		workloads: memo.New[wlKey, *sita.Workload](memoCap, nil),
		sem:       make(chan struct{}, cfg.MaxConcurrent),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /v1/advise", s.handleAdvise)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// wallNow is the service's single wall-clock read point: latency metrics,
// deadlines, and access-log timestamps are serving-path concerns and never
// feed simulation output (simulated time comes from sim.Engine).
func wallNow() time.Time {
	//lint:allow nowallclock serving-path latency/deadline/log timestamps, never simulation output
	return time.Now()
}

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Handler returns the service's root handler: the API mux wrapped with
// in-flight tracking, drain refusal, latency metrics, and access logging.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := wallNow()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		finish, ok := s.track()
		if !ok {
			writeError(rec, http.StatusServiceUnavailable, "server is draining")
		} else {
			// Deferred so a handler panic, which net/http recovers,
			// still releases the request and lets a drain finish.
			defer finish()
			s.mux.ServeHTTP(rec, r)
		}
		elapsed := wallNow().Sub(start)
		s.metrics.observe(r.URL.Path, rec.code, elapsed.Seconds())
		s.accessLog(r, rec, start, elapsed)
	})
}

// track registers an in-flight request unless the server is draining. The
// read lock orders the WaitGroup.Add against Shutdown's drain flag, so no
// request can slip in after wg.Wait started observing a zero counter.
func (s *Server) track() (func(), bool) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return nil, false
	}
	s.wg.Add(1)
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		s.wg.Done()
	}, true
}

// Shutdown begins the drain: new requests (including health checks) are
// refused with 503 while every already-admitted request runs to
// completion. It returns once all in-flight requests finished, or with
// ctx's error if the context expires first. Shutdown ordering for a full
// process is: stop the listener (http.Server.Shutdown), then Server.
// Shutdown to wait out the simulations; see cmd/simd.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Admission errors. errBusy maps to 429 + Retry-After, errDeadline to 503.
var (
	errBusy     = errors.New("service: at capacity, try again later")
	errDeadline = errors.New("service: deadline exceeded before the simulation finished")
)

// admit claims a simulation slot, waiting in the bounded queue when all
// slots are busy. It fails fast with errBusy when the queue is full and
// with errDeadline when ctx expires while queued. The returned release
// must be called exactly once.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}: // free slot, skip the queue
		return func() { <-s.sem }, nil
	default:
	}
	if depth := s.queued.Add(1); depth > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.metrics.addRejected()
		return nil, errBusy
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		s.metrics.addDeadline()
		return nil, errDeadline
	}
}

// handleHealthz reports liveness: 200 while serving, 503 once draining so
// load balancers stop routing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writePrometheus(w)
}

// writeError emits the uniform JSON error body. Errors are never cached.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep ">=" etc. readable in error messages
	enc.Encode(map[string]string{"error": msg})
	w.Write(buf.Bytes())
}

// accessLine is one structured access-log record.
type accessLine struct {
	Time    string  `json:"t"`
	Method  string  `json:"method"`
	Path    string  `json:"path"`
	Status  int     `json:"status"`
	Bytes   int64   `json:"bytes"`
	Millis  float64 `json:"ms"`
	Cache   string  `json:"cache,omitempty"`
	Remote  string  `json:"remote,omitempty"`
	Querier string  `json:"ua,omitempty"`
}

// accessLog writes one JSON line per finished request.
func (s *Server) accessLog(r *http.Request, rec *statusRecorder, start time.Time, elapsed time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line := accessLine{
		Time:    start.UTC().Format(time.RFC3339Nano),
		Method:  r.Method,
		Path:    r.URL.Path,
		Status:  rec.code,
		Bytes:   rec.bytes,
		Millis:  float64(elapsed.Microseconds()) / 1000,
		Cache:   rec.Header().Get("X-Cache"),
		Remote:  r.RemoteAddr,
		Querier: r.Header.Get("User-Agent"),
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.AccessLog.Write(append(buf, '\n'))
	s.logMu.Unlock()
}
