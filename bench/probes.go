package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"sita"
	"sita/internal/catalog"
	"sita/internal/core"
	"sita/internal/queueing"
	"sita/internal/service"
	"sita/internal/streamcache"
	"sita/internal/trace"
)

// runProbes is the traced run's probe child. It calls each layer's public
// functions directly, so every traced run reports these per-layer numbers
// measured the same way, whichever workloads it ran.
func runProbes(env *childEnv) (*childResult, error) {
	res := newChildResult()
	root := env.tr.begin(0, "bench", "probes")
	var firstErr error
	probe := func(cat, name string, fn func() (float64, error)) {
		sp := env.tr.begin(root.id, cat, name)
		v, err := fn()
		sp.end(nil)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
		res.Layer[name] = v
	}
	p := trace.C90()
	size := p.MustSizeDist()

	for _, h := range env.sz.cutoffHosts {
		lambda := float64(h) * cellLoad / size.Moment(1)
		probe("queueing", fmt.Sprintf("queueing.optimal_cutoffs_ms.h%d", h), func() (float64, error) {
			start := now()
			_, err := queueing.OptimalCutoffs(lambda, size, h)
			return ms(now().Sub(start)), err
		})
	}
	for _, d := range designProbes {
		probe("core", "core.design_ms."+d.name, func() (float64, error) {
			var err error
			return ms(medianTime(5, func() { _, err = core.NewDesign(d.variant, cellLoad, size, d.hosts) })), err
		})
	}

	p.Jobs = env.sz.cellJobs
	var tr *trace.Trace
	probe("trace", "trace.generate_ns_per_job", func() (float64, error) {
		start := now()
		var err error
		tr, err = trace.Generate(p, env.seed)
		return float64(now().Sub(start)) / float64(p.Jobs), err
	})
	if firstErr != nil {
		return nil, firstErr
	}
	sc := streamcache.New(streamcache.DefaultMaxBytes)
	probe("streamcache", "streamcache.generate_ns_per_job", func() (float64, error) {
		start := now()
		sc.JobsAtLoad(tr, cellLoad, 2, true, env.seed)
		return float64(now().Sub(start)) / float64(p.Jobs), nil
	})
	probe("streamcache", "streamcache.hit_ns", func() (float64, error) {
		const n = 10000
		start := now()
		for range n {
			sc.JobsAtLoad(tr, cellLoad, 2, true, env.seed)
		}
		return float64(now().Sub(start)) / n, nil
	})

	cells, err := buildCells(append(append([]string(nil), directCells...), engineCells...), env.seed, env.sz.cellJobs)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		layer := "server"
		if c.policy == nil {
			layer = "tags"
		}
		probe(layer, layer+".ns_per_job."+c.name, func() (float64, error) {
			return float64(medianTime(3, func() { c.run(false) })) / float64(len(c.jobs)), nil
		})
		res.Layer[layer+".allocs_per_run."+c.name] = float64(mallocs(func() { c.run(false) }))
	}

	body := []byte(`{"policy":"SITA-U-fair"}`)
	cache := service.NewCache(1 << 20)
	cache.Do("key", func() ([]byte, error) { return body, nil })
	probe("service", "service.cache_hit_ns", func() (float64, error) {
		const n = 100000
		start := now()
		for range n {
			cache.Do("key", func() ([]byte, error) { return body, nil })
		}
		return float64(now().Sub(start)) / n, nil
	})
	probe("service", "service.encode_us", func() (float64, error) {
		const n = 10000
		resp := sampleResponse()
		var err error
		start := now()
		for range n {
			_, err = json.Marshal(resp)
		}
		return float64(now().Sub(start)) / float64(time.Microsecond) / n, err
	})

	var wl *sita.Workload
	probe("workload", "workload.load_ms", func() (float64, error) {
		var err error
		return ms(medianTime(3, func() { wl, err = sita.LoadWorkload("psc-c90", env.seed) })), err
	})
	if firstErr != nil {
		return nil, firstErr
	}
	for _, name := range catalog.PolicyNames() {
		probe("catalog", "catalog.build_ms."+name, func() (float64, error) {
			var err error
			return ms(medianTime(5, func() { _, _, err = catalog.Build(name, cellLoad, wl, 2, env.seed) })), err
		})
	}
	root.end(nil)
	return res, firstErr
}

// medianTime runs fn n times and returns the median duration.
func medianTime(n int, fn func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		start := now()
		fn()
		d[i] = float64(now().Sub(start))
	}
	return time.Duration(median(d))
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// sampleResponse is a SimResponse of the size an 8-host SITA request gets.
func sampleResponse() service.SimResponse {
	share := []float64{0.05, 0.06, 0.07, 0.08, 0.12, 0.17, 0.2, 0.25}
	short, long, spread := 3.21, 4.56, 1.42
	return service.SimResponse{
		Policy: "SITA-U-fair", Hosts: 8, Load: 0.7, Profile: "psc-c90", Seed: 1, Jobs: 20000, Warmup: 0.1,
		MeanSlowdown: 3.9, VarSlowdown: 812.5, MaxSlowdown: 4096.25, MeanResponse: 5123.5, MeanWait: 623.5,
		Horizon: 1.234e7, HostLoadShare: share, HostUtilize: share,
		ShortSlowdown: &short, LongSlowdown: &long, FairnessSpread: &spread,
	}
}
