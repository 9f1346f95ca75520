// Command simd is the persistent simulation service: a long-running HTTP
// server answering policy-evaluation requests on top of the deterministic
// simulation library, with request caching, admission control, deadlines,
// graceful drain, and an observability surface.
//
// Endpoints:
//
//	POST /v1/simulate   run (or serve from cache) one policy evaluation
//	GET  /v1/advise     SITA cutoff recommendations from the queueing analysis
//	GET  /healthz       liveness (503 once draining)
//	GET  /metrics       Prometheus text format
//	GET  /debug/vars    expvar
//	     /debug/pprof/  runtime profiling
//
// Usage:
//
//	simd -addr :8080
//	simd -addr :8080 -sims 8 -queue 128 -cache-mb 128 -timeout 30s
//
// On SIGINT/SIGTERM the server stops accepting connections, refuses new
// requests with 503, lets every admitted simulation finish (bounded by
// -drain), then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sita/internal/catalog"
	"sita/internal/service"
	"sita/internal/streamcache"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		sims     = flag.Int("sims", runtime.GOMAXPROCS(0), "max concurrently executing simulations")
		queue    = flag.Int("queue", 64, "max requests waiting for a simulation slot before 429")
		cacheMB  = flag.Int("cache-mb", 64, "response cache bound in MiB (0 disables caching)")
		streamMB = flag.Int("stream-cache-mb", streamcache.DefaultMaxBytes>>20,
			"job-stream cache bound in MiB (0 disables stream sharing; results are identical either way)")
		maxJobs = flag.Int("max-jobs", 2_000_000, "largest per-request job count accepted")
		timeout = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTO   = flag.Duration("max-timeout", 120*time.Second, "ceiling on requested deadlines")
		drain   = flag.Duration("drain", 60*time.Second, "shutdown drain budget for in-flight simulations")
		quiet   = flag.Bool("quiet", false, "suppress the JSON access log on stderr")
	)
	flag.Parse()
	if err := catalog.CheckWorkers(*sims); err != nil {
		fatal(fmt.Errorf("-sims: %w", err))
	}
	if *queue < 0 {
		fatal(fmt.Errorf("-queue must be >= 0, got %d", *queue))
	}
	if *cacheMB < 0 {
		fatal(fmt.Errorf("-cache-mb must be >= 0, got %d", *cacheMB))
	}
	if *maxJobs < 1 {
		fatal(fmt.Errorf("-max-jobs must be >= 1, got %d", *maxJobs))
	}
	if *streamMB < 0 {
		fatal(fmt.Errorf("-stream-cache-mb must be >= 0, got %d", *streamMB))
	}
	streamcache.Shared.SetMaxBytes(int64(*streamMB) << 20)

	cfg := service.Config{
		MaxConcurrent:  *sims,
		MaxQueue:       *queue,
		CacheBytes:     int64(*cacheMB) << 20,
		MaxJobs:        *maxJobs,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
	}
	if *cacheMB == 0 {
		cfg.CacheBytes = -1 // Config treats 0 as "default", negative as off
	}
	if *queue == 0 {
		cfg.MaxQueue = -1 // likewise: 0 means default, negative means none
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	svc := service.New(cfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "simd: listening on %s (%d sim slots, queue %d, cache %d MiB)\n",
			*addr, *sims, *queue, *cacheMB)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "simd: %v, draining (budget %v)\n", sig, *drain)
		// Shutdown ordering: stop the listener and wait for connections
		// (http.Server.Shutdown), while the service refuses new requests
		// and waits out admitted simulations (service.Shutdown). Both
		// share the drain budget; on expiry, connections are cut.
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		svcDone := make(chan error, 1)
		go func() { svcDone <- svc.Shutdown(ctx) }()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "simd: drain budget exceeded, cutting connections: %v\n", err)
			httpSrv.Close()
		}
		if err := <-svcDone; err != nil {
			fmt.Fprintf(os.Stderr, "simd: simulations still running at exit: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "simd: drained cleanly")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simd:", err)
	os.Exit(1)
}
