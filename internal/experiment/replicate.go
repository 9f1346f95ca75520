package experiment

import (
	"fmt"
	"runtime"
	"sort"

	"sita/internal/runner"
	"sita/internal/stats"
)

// Replicate runs an experiment driver across several seeds and aggregates
// each table point into mean and 95% confidence half-width tables. Single
// long runs are the paper's protocol; replication quantifies how much of
// each curve is estimation noise — essential near saturation, where mean
// slowdown converges very slowly.
//
// Replications are independent, so they fan out on the config's worker
// pool; the pool budget is split between the seed level and each driver's
// own cell-level fan-out. Aggregation walks the replications in seed
// order, so the output is identical for any worker count.
func Replicate(driver func(Config) ([]Table, error), cfg Config, seeds []uint64) ([]Table, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: replicate needs at least one seed")
	}

	// Split the worker budget: outer workers run whole replications, each
	// replication's driver gets the remaining share for its cells.
	budget := cfg.Workers
	if budget <= 0 {
		//lint:allow nowallclock worker-budget default; replication merge order is deterministic at any worker count
		budget = runtime.GOMAXPROCS(0)
	}
	outer := budget
	if outer > len(seeds) {
		outer = len(seeds)
	}
	inner := budget / outer
	if inner < 1 {
		inner = 1
	}

	perSeed, err := runner.MapOpts(runner.Options{Workers: outer, Progress: cfg.Progress}, seeds,
		func(_ int, seed uint64) ([]Table, error) {
			c := cfg
			c.Seed = seed
			c.Workers = inner
			c.Progress = nil // seed-level progress only; inner counts would interleave
			tables, err := driver(c)
			if err != nil {
				return nil, fmt.Errorf("experiment: replicate seed %d: %w", seed, err)
			}
			return tables, nil
		})
	if err != nil {
		return nil, err
	}

	// accum[tableID][series][x] collects per-seed values, walked in seed
	// order so Welford accumulation order (and thus every output bit) is
	// independent of completion order.
	type key struct {
		series string
		x      float64
	}
	accum := map[string]map[key]*stats.Stream{}
	var protos []Table
	protoSeen := map[string]bool{}
	for _, tables := range perSeed {
		for _, t := range tables {
			if !protoSeen[t.ID] {
				protoSeen[t.ID] = true
				protos = append(protos, t)
			}
			m, ok := accum[t.ID]
			if !ok {
				m = map[key]*stats.Stream{}
				accum[t.ID] = m
			}
			for _, s := range t.SeriesNames() {
				for _, x := range t.Xs() {
					if y, ok := t.Value(s, x); ok {
						k := key{s, x}
						st := m[k]
						if st == nil {
							st = &stats.Stream{}
							m[k] = st
						}
						st.Add(y)
					}
				}
			}
		}
	}

	var out []Table
	for _, proto := range protos {
		mean := NewTable(proto.ID+"-repmean",
			fmt.Sprintf("%s — mean of %d replications", proto.Title, len(seeds)),
			proto.XLabel, proto.YLabel)
		ci := NewTable(proto.ID+"-repci",
			fmt.Sprintf("%s — 95%% CI half-width over %d replications", proto.Title, len(seeds)),
			proto.XLabel, proto.YLabel)
		// Walk the first replication's series and x order rather than the
		// accumulator map, so series appear in the prototype's column order
		// instead of Go's randomized map order.
		m := accum[proto.ID]
		for _, s := range proto.SeriesNames() {
			for _, x := range proto.Xs() {
				if st, ok := m[key{s, x}]; ok {
					mean.Add(s, x, st.Mean())
					ci.Add(s, x, st.CI(0.95))
				}
			}
		}
		// Points absent from the prototype (a cell populated under some
		// other seed only) still need to appear; append them in sorted
		// order so output never depends on map iteration.
		var rest []key
		for k := range m {
			if _, ok := mean.Value(k.series, k.x); !ok {
				rest = append(rest, k)
			}
		}
		sort.Slice(rest, func(i, j int) bool {
			if rest[i].series != rest[j].series {
				return rest[i].series < rest[j].series
			}
			return rest[i].x < rest[j].x
		})
		for _, k := range rest {
			mean.Add(k.series, k.x, m[k].Mean())
			ci.Add(k.series, k.x, m[k].CI(0.95))
		}
		out = append(out, *mean, *ci)
	}
	return out, nil
}
