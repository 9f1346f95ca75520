package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sita/internal/core"
	"sita/internal/dist"
	"sita/internal/policy"
	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/streamcache"
	"sita/internal/tags"
	"sita/internal/trace"
	"sita/internal/workload"
)

// Every cell runs the C90 stream at this system load with Poisson
// arrivals and excludes this warmup fraction, as the paper's figures do.
const (
	cellLoad   = 0.7
	cellWarmup = 0.1
)

// cell is one (policy, host count) simulation on a shared job stream.
type cell struct {
	name   string
	hosts  int
	jobs   []workload.Job
	policy func() server.Policy // a fresh instance per run; nil for TAGS
	ps     bool                 // processor-sharing hosts (server.RunPS)
	cuts   []float64            // TAGS kill cutoffs
}

// outcome is what a cell run is checked on.
type outcome struct{ mean, variance, horizon float64 }

// String renders the outcome as hex floats, which compare bit for bit.
func (o outcome) String() string {
	h := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	return h(o.mean) + " " + h(o.variance) + " " + h(o.horizon)
}

func (c *cell) config(engine bool) server.Config {
	return server.Config{Hosts: c.hosts, Policy: c.policy(), WarmupFraction: cellWarmup, OrderCheck: engine}
}

// run simulates the cell once. engine pins server.Run to the event heap
// (OrderCheck does), which the direct-path parity check compares against.
func (c *cell) run(engine bool) outcome {
	if c.policy == nil {
		r := tags.Simulate(c.jobs, c.cuts, cellWarmup)
		return outcome{r.Slowdown.Mean(), r.Slowdown.Variance(), r.Horizon}
	}
	var r *server.Result
	if c.ps {
		r = server.RunPS(c.jobs, c.config(engine))
	} else {
		r = server.Run(c.jobs, c.config(engine))
	}
	return outcome{r.Slowdown.Mean(), r.Slowdown.Variance(), r.Horizon}
}

// direct reports whether server.Run routes the cell to the direct path.
func (c *cell) direct() bool {
	return c.policy != nil && !c.ps && server.DirectEligible(c.config(false))
}

// buildCells generates an n-job C90 trace from seed, retimes it through
// the shared stream cache for each host count, and builds the named cells.
func buildCells(names []string, seed uint64, n int) ([]*cell, error) {
	p := trace.C90()
	p.Jobs = n
	tr, err := trace.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	size := p.MustSizeDist()
	cells := make([]*cell, 0, len(names))
	for _, name := range names {
		c, err := newCell(name, size, seed)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", name, err)
		}
		c.jobs = streamcache.Shared.JobsAtLoad(tr, cellLoad, c.hosts, true, seed)
		cells = append(cells, c)
	}
	return cells, nil
}

func newCell(name string, size dist.BoundedPareto, seed uint64) (*cell, error) {
	i := strings.LastIndex(name, "-h")
	if i < 0 {
		return nil, fmt.Errorf("no host count in the name")
	}
	hosts, err := strconv.Atoi(name[i+2:])
	if err != nil {
		return nil, fmt.Errorf("host count: %w", err)
	}
	c := &cell{name: name, hosts: hosts}
	design := func(v core.Variant) error {
		d, err := core.NewDesign(v, cellLoad, size, hosts)
		if err == nil {
			c.policy = d.Policy
		}
		return err
	}
	switch name[:i] {
	case "random":
		c.policy = func() server.Policy { return policy.NewRandom(sim.NewRNG(seed, 100)) }
	case "round-robin":
		c.policy = func() server.Policy { return policy.NewRoundRobin() }
	case "lwl":
		c.policy = func() server.Policy { return policy.NewLeastWorkLeft() }
	case "shortest-queue":
		c.policy = func() server.Policy { return policy.NewShortestQueue() }
	case "central-queue":
		c.policy = func() server.Policy { return policy.NewCentralQueue() }
	case "sita-u-fair", "sita-u-fair-grouped":
		return c, design(core.SITAUFair)
	case "ps-sita-u-fair":
		c.ps = true
		return c, design(core.SITAUFair)
	case "sita-e-full":
		d, err := core.NewDesignFull(core.SITAE, cellLoad, size, hosts)
		if err != nil {
			return nil, err
		}
		c.policy = d.Policy
	case "tags":
		c.cuts, err = tags.OptimalCutoffs(float64(hosts)*cellLoad/size.Moment(1), size, hosts)
		return c, err
	default:
		return nil, fmt.Errorf("unknown policy")
	}
	return c, nil
}

// runCells is the cells-direct and cells-engine workload: each pass runs
// every cell once, and one operation is one pass.
func runCells(env *childEnv, names []string, passes int) (*childResult, error) {
	cells, err := buildCells(names, env.seed, env.sz.cellJobs)
	if err != nil {
		return nil, err
	}
	golden, err := readCellGolden(filepath.Join(env.root, "bench", "testdata", "cells.golden"))
	if err != nil {
		return nil, err
	}
	res := newChildResult()
	direct := 0
	for _, c := range cells {
		if c.direct() {
			direct++
		}
	}
	res.Layer["server.direct_cells"] = float64(direct)

	outs := make([][]outcome, passes)
	env.startTiming()
	rep := env.tr.begin(0, "bench", env.kind)
	for p := range outs {
		outs[p] = make([]outcome, len(cells))
		for i, c := range cells {
			env.timed(p, func() {
				sp := env.tr.begin(rep.id, "cell", c.name)
				outs[p][i] = c.run(false)
				sp.end(nil)
			})
		}
	}
	rep.end(nil)
	env.stopTiming()

	res.Checked = "bench/testdata/cells.golden"
	for i, c := range cells {
		want, pinned := golden[goldenKey(env.seed, env.sz.cellJobs, c.name)]
		if !pinned {
			res.Checked = fmt.Sprintf("unchecked: seed %d has no pinned cell values; checked repeatability and direct-vs-engine parity", env.seed)
			want = outs[0][i].String()
		}
		res.Outputs[c.name] = outs[0][i].String()
		for p := range outs {
			res.check(outs[p][i].String() == want, "%s pass %d: got %s, want %s", c.name, p, outs[p][i], want)
		}
		if c.direct() {
			got := c.run(true)
			res.check(got.String() == want, "%s on the event engine: got %s, want %s", c.name, got, want)
		}
	}
	return res, nil
}

func goldenKey(seed uint64, jobs int, cell string) string {
	return fmt.Sprintf("%d %d %s", seed, jobs, cell)
}

// readCellGolden reads lines of "seed jobs cell mean variance horizon",
// the last three as hex floats.
func readCellGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 6 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[strings.Join(fields[:3], " ")] = strings.Join(fields[3:], " ")
	}
	return out, sc.Err()
}
