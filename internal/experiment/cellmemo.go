package experiment

import (
	"sita/internal/core"
	"sita/internal/dist"
	"sita/internal/memo"
	"sita/internal/server"
	"sita/internal/streamcache"
	"sita/internal/trace"
	"sita/internal/workload"
)

// stream names one retimed job stream of a driver's trace: the arguments
// of streamcache.JobsAtLoad.
type stream struct {
	tr      *trace.Trace
	load    float64
	hosts   int
	poisson bool
	seed    uint64
}

// jobs returns the stream from the shared stream cache.
func (s stream) jobs() []workload.Job {
	return streamcache.Shared.JobsAtLoad(s.tr, s.load, s.hosts, s.poisson, s.seed)
}

// cellKey identifies one plain cell: the stream, the policy spec built
// for the stream's load and host count, and the run options. A spec's
// name determines its build function, so (name, size, seed) pins the
// policy. The seed is the config's, for every spec: each driver's trace
// is generated from that seed, which the stream's trace identity already
// holds, so keying it costs no hits, and a spec that draws random
// numbers can never share a cell across seeds.
type cellKey struct {
	stream      streamcache.Key
	policy      string
	size        dist.BoundedPareto
	seed        uint64
	warmup      float64
	keepRecords bool
}

// cellMaxBytes bounds the cell memo. A plain Result is about a kilobyte;
// a full-length C90 cell with kept records is about 2.4 MB, and a sweep
// keeps eight of those.
const cellMaxBytes = 64 << 20

// cellMemo memoizes plain simulation cells process-wide. Drivers share
// cells: fig4 re-runs fig2's SITA-E curve, tags, tail-latency and
// response-time run the same policies on the same streams, and
// multi-cutoff's grouped design is one of fig6's. Each key fully
// determines its Result (the stream cache's purity contract plus a
// deterministic simulation), so a hit is indistinguishable from running
// the cell again. Results are shared and read-only.
var cellMemo = memo.New[cellKey, *server.Result](cellMaxBytes, resultBytes)

// ClearMemos forgets every memoized cell and cutoff search, so the next
// run of a driver simulates and derives all it needs, as in a fresh
// process. Generated traces and the shared stream cache are kept.
// Benchmarks that time repeated driver runs call it before each run.
func ClearMemos() {
	cellMemo.Clear()
	core.ClearCutoffMemo()
}

// resultBytes estimates a Result's memory: the fixed part, the per-host
// slices and the kept records (48 bytes each).
func resultBytes(r *server.Result) int64 {
	return 512 + 16*int64(r.Hosts) + 48*int64(cap(r.Records))
}

// simulate runs spec's policy, built for the stream's load and host count
// on the size distribution, over the stream with the config's warmup; a
// cell simulated before in this process is answered from the cell memo.
// Every driver's plain server.Run cell goes through here. Cells that set
// SizeClass, OnRecord or another Config field take functions or state a
// key cannot compare, so they call server.Run directly. The returned
// Result is shared and read-only; err is spec's build error (an
// infeasible design), which is never cached.
func (c Config) simulate(s stream, size dist.BoundedPareto, spec policySpec, keepRecords bool) (*server.Result, error) {
	run := func() (*server.Result, error) {
		p, err := spec.build(s.load, size, s.hosts, c.Seed)
		if err != nil {
			return nil, err
		}
		return server.Run(s.jobs(), server.Config{
			Hosts:          s.hosts,
			Policy:         p,
			WarmupFraction: c.Warmup,
			KeepRecords:    keepRecords,
		}), nil
	}
	id, ok := s.tr.Identity()
	if !ok {
		return run()
	}
	key := cellKey{
		stream:      streamcache.Key{Trace: id, Load: s.load, Hosts: s.hosts, Poisson: s.poisson, Seed: s.seed},
		policy:      spec.name,
		size:        size,
		seed:        c.Seed,
		warmup:      c.Warmup,
		keepRecords: keepRecords,
	}
	res, _, err := cellMemo.Do(key, run)
	return res, err
}
