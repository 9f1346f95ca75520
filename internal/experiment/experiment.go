// Package experiment regenerates every table and figure of the paper's
// evaluation: the trace characterization (Table 1), the load-balancing
// policy comparison (Figures 2-3), the load-unbalancing policies (Figures
// 4-5), large systems (Figure 6), bursty arrivals (Figure 7), the analytic
// counterparts (Figures 8-9), and the J90/CTC appendices (Figures 10-13),
// plus ablations the paper alludes to but does not run.
//
// Each driver returns Tables: named series over a shared x axis, rendered
// as aligned text or CSV by the caller (cmd/sweep).
//
// Drivers are deterministic: every seed is fixed by the cell's
// coordinates before fan-out — a load sweep's job stream by jobSeed(load),
// a host-count sweep's by Seed + h, and every other stream and policy RNG
// by Seed (with a fixed RNG stream number, or Seed + 1 for derivation's
// held-out half) — so a driver's tables are bit-identical for any
// Config.Workers value, the property the results/ golden files pin.
// Drivers run their cells concurrently through internal/runner (most
// through runCells), but a Config is owned by one driver call at a time;
// nothing here is safe for concurrent mutation.
package experiment

import (
	"fmt"
	"math"

	"sita/internal/core"
	"sita/internal/dist"
	"sita/internal/memo"
	"sita/internal/runner"
	"sita/internal/server"
	"sita/internal/trace"
)

// Config is shared experiment configuration.
type Config struct {
	// Profile selects the workload (C90 by default).
	Profile trace.Profile
	// Jobs caps the trace length per simulated point (0 = profile's full
	// length). Smaller values trade statistical stability for speed.
	Jobs int
	// Seed drives all randomness.
	Seed uint64
	// Warmup is the fraction of jobs excluded from statistics.
	Warmup float64
	// Loads is the system-load sweep for the load-axis figures.
	Loads []float64
	// Workers bounds how many simulation cells run concurrently
	// (0 = runtime.GOMAXPROCS(0)). Every driver's output is bit-identical
	// for any worker count: cell seeds are pure functions of the cell's
	// coordinates, and results are collected in cell order.
	Workers int
	// Progress, when non-nil, receives (completed, total) cell counts as a
	// driver's simulation cells finish. Counts reset per fan-out.
	Progress func(done, total int)
}

// pool returns the runner options for fanning this config's cells out.
func (c Config) pool() runner.Options {
	return runner.Options{Workers: c.Workers, Progress: c.Progress}
}

// Default returns the configuration used by the reproduction: the C90
// profile, its full job count, and the paper's plotted load range.
func Default() Config {
	return Config{
		Profile: trace.C90(),
		Seed:    1,
		Warmup:  0.1,
		Loads:   []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
	}
}

// withProfile returns a copy of the config targeting another profile.
func (c Config) withProfile(p trace.Profile) Config {
	c.Profile = p
	return c
}

// jobsPerPoint reports the trace length to simulate.
func (c Config) jobsPerPoint() int {
	if c.Jobs > 0 && c.Jobs < c.Profile.Jobs {
		return c.Jobs
	}
	return c.Profile.Jobs
}

// traces memoizes Generate across experiment drivers. A full sweep asks
// for the same (profile, seed) trace dozens of times — once per driver —
// and generation is pure, so the second request onward reuses the first
// trace. Cached traces are shared and must be treated as read-only, which
// every consumer already does (JobsAtLoad, ComputeStats and SplitHalf
// never write a trace). Unbounded: a sweep touches a handful of
// traces. It is separate from simd's workload memo because the keys
// differ: the sweep generates a shortened trace, simd truncates a full one.
var traces = memo.New[traceKey, *trace.Trace](math.MaxInt64, nil)

type traceKey struct {
	profile trace.Profile
	seed    uint64
}

// buildTrace synthesizes the profile's trace once; experiments re-time it
// per load.
func (c Config) buildTrace() (*trace.Trace, error) {
	p := c.Profile
	p.Jobs = c.jobsPerPoint()
	tr, _, err := traces.Do(traceKey{profile: p, seed: c.Seed}, func() (*trace.Trace, error) {
		return trace.Generate(p, c.Seed)
	})
	return tr, err
}

// policySpec names a policy and builds a fresh instance for a given load
// (SITA cutoffs depend on the arrival rate). The name is the spec's
// identity in the cell memo: two specs with one name must build the same
// policy from the same arguments.
type policySpec struct {
	name  string
	build func(load float64, size dist.Distribution, hosts int, seed uint64) (server.Policy, *core.Design, error)
}

// policyRow is the policy-table row with the given key.
// Panics if no row has that key; every caller passes a literal.
func policyRow(key string) core.PolicyRow {
	r, ok := core.LookupPolicy(key)
	if !ok {
		panic(fmt.Sprintf("experiment: no policy %q in the policy table", key))
	}
	return r
}

// spec is the spec of the policy-table row with the given key, named by
// the row's display name.
func spec(key string) policySpec {
	r := policyRow(key)
	return policySpec{name: r.Name, build: r.Build}
}

// specFullSITA is the full (h-1)-cutoff SITA design of core.NewDesignFull.
func specFullSITA(v core.Variant) policySpec {
	return policySpec{name: v.String() + "-multi", build: func(load float64, size dist.Distribution, hosts int, _ uint64) (server.Policy, *core.Design, error) {
		d, err := core.NewDesignFull(v, load, size, hosts)
		if err != nil {
			return nil, nil, err
		}
		return d.Policy(), nil, nil
	}}
}

// jobSeed derives the job-stream seed for one load point. It depends on
// (base seed, load) only — never on the policy — so every policy at a load
// point sees the same arrival sequence (common random numbers, which is
// what makes the policy curves directly comparable). The formula predates
// runner.CellSeed and is frozen: the recorded outputs under results/ and
// the measured numbers in EXPERIMENTS.md key on it.
func (c Config) jobSeed(load float64) uint64 {
	return c.Seed + uint64(math.Float64bits(load))
}

// cell is one point of a driver's grid: spec's policy run on a job
// stream, its value plotted at (series, x). A driver that plots several
// values per cell (percentiles, deciles) reads only series.
type cell struct {
	s      stream
	spec   policySpec
	series string
	x      float64
}

// runCells simulates the cells on the config's worker pool, each through
// the cell memo, and returns their Results in cell order, so a driver's
// output is identical for any worker count. A cell whose design is
// infeasible (e.g. SITA cutoffs at overload) gets nil and is left out of
// the tables, like the unreadable high-load ends of the paper's plots.
func (c Config) runCells(size dist.BoundedPareto, cells []cell, keepRecords bool) []*server.Result {
	results, _ := runner.MapOpts(c.pool(), cells, func(_ int, cl cell) (*server.Result, error) { // never fails
		res, err := c.simulate(cl.s, size, cl.spec, keepRecords)
		if err != nil {
			return nil, nil
		}
		return res, nil
	})
	return results
}

// addPoints adds y of each simulated cell's Result at the cell's point.
func addPoints(t *Table, cells []cell, results []*server.Result, y func(*server.Result) float64) {
	for i, res := range results {
		if res != nil {
			t.Add(cells[i].series, cells[i].x, y(res))
		}
	}
}

// meanSlowdown is the y of most tables.
func meanSlowdown(r *server.Result) float64 { return r.Slowdown.Mean() }

// simSweep simulates each policy across the load sweep and returns mean
// slowdown and variance-of-slowdown tables.
func (c Config) simSweep(id, title string, hosts int, specs []policySpec, poisson bool) ([]Table, error) {
	tr, err := c.buildTrace()
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, spec := range specs {
		for _, load := range c.Loads {
			cells = append(cells, cell{stream{tr, load, hosts, poisson, c.jobSeed(load)}, spec, spec.name, load})
		}
	}
	results := c.runCells(c.Profile.MustSizeDist(), cells, false)
	mean := NewTable(id+"-mean", title+" — mean slowdown", "system load", "mean slowdown")
	vari := NewTable(id+"-var", title+" — variance of slowdown", "system load", "variance of slowdown")
	addPoints(mean, cells, results, meanSlowdown)
	addPoints(vari, cells, results, func(r *server.Result) float64 { return r.Slowdown.Variance() })
	return []Table{*mean, *vari}, nil
}

// Table1 regenerates the trace characterization table for all three
// workloads.
func Table1(cfg Config) ([]Table, error) {
	t := NewTable("table1", "Characteristics of the trace data", "profile", "")
	t.Columns = []string{"jobs", "mean(s)", "min(s)", "max(s)", "C^2", "tail@halfload"}
	t.RowLabels = make([]string, 0, 3)
	for i, p := range []trace.Profile{trace.C90(), trace.J90(), trace.CTC()} {
		c := cfg.withProfile(p)
		tr, err := c.buildTrace()
		if err != nil {
			return nil, fmt.Errorf("experiment: table1 %s: %w", p.Name, err)
		}
		st := tr.ComputeStats()
		x := float64(i)
		t.Add("jobs", x, float64(st.Jobs))
		t.Add("mean(s)", x, st.Mean)
		t.Add("min(s)", x, st.Min)
		t.Add("max(s)", x, st.Max)
		t.Add("C^2", x, st.SquaredCV)
		t.Add("tail@halfload", x, st.TailJobFraction)
		t.RowLabels = append(t.RowLabels, p.Name)
	}
	return []Table{*t}, nil
}

// Figure2 compares the load-balancing policies (Random, Least-Work-Left,
// SITA-E) on a 2-host system by trace-driven simulation.
func Figure2(cfg Config) ([]Table, error) {
	return cfg.simSweep("fig2", "Load-balancing policies, 2 hosts (simulation)", 2,
		[]policySpec{spec("random"), spec("lwl"), spec("sita-e")}, true)
}

// Figure3 repeats Figure 2 with 4 hosts.
func Figure3(cfg Config) ([]Table, error) {
	return cfg.simSweep("fig3", "Load-balancing policies, 4 hosts (simulation)", 4,
		[]policySpec{spec("random"), spec("lwl"), spec("sita-e")}, true)
}

// Figure4 compares SITA-E against the load-unbalancing SITA-U-opt and
// SITA-U-fair on 2 hosts by simulation.
func Figure4(cfg Config) ([]Table, error) {
	return cfg.simSweep("fig4", "SITA-E vs SITA-U-opt vs SITA-U-fair, 2 hosts (simulation)", 2,
		[]policySpec{spec("sita-e"), spec("sita-u-opt"), spec("sita-u-fair")}, true)
}

// Figure5 reports the fraction of total load sent to Host 1 (the short
// host) under SITA-U-opt and SITA-U-fair, against the rule of thumb rho/2.
func Figure5(cfg Config) ([]Table, error) {
	size := cfg.Profile.MustSizeDist()
	t := NewTable("fig5", "Fraction of load to Host 1 (analysis)", "system load", "load fraction to Host 1")
	for _, load := range cfg.Loads {
		for _, v := range []core.Variant{core.SITAUOpt, core.SITAUFair} {
			d, err := core.NewDesign(v, load, size, 2)
			if err != nil {
				continue
			}
			t.Add(v.String(), load, d.ShortLoadFraction())
		}
		t.Add("rule-of-thumb", load, core.RuleOfThumbFraction(load))
	}
	return []Table{*t}, nil
}

// Figure6 sweeps the number of hosts at fixed system load 0.7: LWL against
// the grouped SITA policies of section 5.
func Figure6(cfg Config) ([]Table, error) {
	const load = 0.7
	// 2..100 are the paper's plotted range; 128..256 extend the crossover
	// region now that indexed host selection makes large h cheap (the
	// many-hosts driver pushes further still).
	hostCounts := []int{2, 4, 8, 16, 32, 48, 64, 80, 100, 128, 192, 256}
	tr, err := cfg.buildTrace()
	if err != nil {
		return nil, err
	}
	// The job stream depends on the host count only, so every policy at a
	// host count is measured on the same arrivals.
	specs := []policySpec{spec("lwl"), spec("sita-e"), spec("sita-u-opt"), spec("sita-u-fair")}
	var cells []cell
	for _, h := range hostCounts {
		for _, spec := range specs {
			cells = append(cells, cell{stream{tr, load, h, true, cfg.Seed + uint64(h)}, spec, spec.name, float64(h)})
		}
	}
	t := NewTable("fig6", "Slowdown vs number of hosts at load 0.7 (simulation)", "hosts", "mean slowdown")
	addPoints(t, cells, cfg.runCells(cfg.Profile.MustSizeDist(), cells, false), meanSlowdown)
	return []Table{*t}, nil
}

// Figure7 removes the Poisson assumption: the trace's own bursty
// interarrival gaps are rescaled to each load (section 6), with the
// analytic Poisson cutoffs retained, exactly as in the paper.
func Figure7(cfg Config) ([]Table, error) {
	c := cfg
	// The interesting region extends toward saturation; use the paper's
	// high-load sweep unless the caller chose loads explicitly.
	if equalLoads(cfg.Loads, Default().Loads) {
		c.Loads = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98}
	}
	// Section 6's workload has dependencies between arrivals and sizes:
	// bursts of similar-runtime jobs. Regenerate the trace with the
	// correlation switched on.
	c.Profile.BurstSizeBand = 0.15
	tables, err := c.simSweep("fig7", "Bursty (scaled-trace) arrivals, 2 hosts (simulation)", 2,
		[]policySpec{spec("lwl"), spec("sita-u-opt"), spec("sita-u-fair")}, false)
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// Figure8 is the analytic counterpart of Figure 2: mean slowdown of the
// load-balancing policies from queueing formulas.
func Figure8(cfg Config) ([]Table, error) {
	return cfg.predictSweep("fig8", "Load-balancing policies, 2 hosts (analysis)",
		"random", "round-robin", "lwl", "sita-e"), nil
}

// Figure9 is the analytic counterpart of Figure 4: SITA-E vs SITA-U-opt vs
// SITA-U-fair mean slowdown from queueing formulas.
func Figure9(cfg Config) ([]Table, error) {
	return cfg.predictSweep("fig9", "SITA variants, 2 hosts (analysis)",
		"sita-e", "sita-u-opt", "sita-u-fair"), nil
}

// Figure10 repeats the policy comparison (Figures 2 and 4 combined) on the
// J90 workload.
func Figure10(cfg Config) ([]Table, error) {
	c := cfg.withProfile(trace.J90())
	tables, err := c.simSweep("fig10", "All policies, 2 hosts, J90 (simulation)", 2,
		[]policySpec{spec("random"), spec("lwl"), spec("sita-e"), spec("sita-u-opt"), spec("sita-u-fair")}, true)
	return tables, err
}

// Figure11 repeats Figure 5 on the J90 workload.
func Figure11(cfg Config) ([]Table, error) {
	tables, err := Figure5(cfg.withProfile(trace.J90()))
	if err != nil {
		return nil, err
	}
	tables[0].ID = "fig11"
	tables[0].Title += " — J90"
	return tables, nil
}

// Figure12 repeats the policy comparison on the CTC workload.
func Figure12(cfg Config) ([]Table, error) {
	c := cfg.withProfile(trace.CTC())
	tables, err := c.simSweep("fig12", "All policies, 2 hosts, CTC (simulation)", 2,
		[]policySpec{spec("random"), spec("lwl"), spec("sita-e"), spec("sita-u-opt"), spec("sita-u-fair")}, true)
	return tables, err
}

// Figure13 repeats Figure 5 on the CTC workload.
func Figure13(cfg Config) ([]Table, error) {
	tables, err := Figure5(cfg.withProfile(trace.CTC()))
	if err != nil {
		return nil, err
	}
	tables[0].ID = "fig13"
	tables[0].Title += " — CTC"
	return tables, nil
}

// Drivers maps experiment IDs to their driver functions.
func Drivers() map[string]func(Config) ([]Table, error) {
	return map[string]func(Config) ([]Table, error){
		"table1": Table1,
		"fig2":   Figure2,
		"fig3":   Figure3,
		"fig4":   Figure4,
		"fig5":   Figure5,
		"fig6":   Figure6,
		"fig7":   Figure7,
		"fig8":   Figure8,
		"fig9":   Figure9,
		"fig10":  Figure10,
		"fig11":  Figure11,
		"fig12":  Figure12,
		"fig13":  Figure13,
		// Ablations beyond the paper's figures:
		"cutoff-sensitivity": CutoffSensitivity,
		"misclassification":  Misclassification,
		"burstiness":         BurstinessSweep,
		"multi-cutoff":       MultiCutoffAblation,
		"fairness-profile":   FairnessProfile,
		"tags":               TAGSComparison,
		"tail-latency":       TailLatency,
		"derivation":         DerivationProtocol,
		"sjf":                SJFComparison,
		"estimate-noise":     EstimateNoise,
		"response-time":      ResponseTime,
		"variance-analysis":  VarianceAnalysis,
		// Opt-in sweeps, absent from IDs() so `-exp all` (and the recorded
		// results/ corpus) excludes them:
		"many-hosts": ManyHosts,
	}
}

// IDs returns the experiment identifiers in presentation order.
func IDs() []string {
	return []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"cutoff-sensitivity", "misclassification", "burstiness",
		"multi-cutoff", "fairness-profile", "tags", "tail-latency",
		"derivation", "sjf", "estimate-noise", "response-time",
		"variance-analysis",
	}
}

// equalLoads reports whether two load sweeps are identical.
func equalLoads(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:allow floateq sweep-config identity check, not a computed value
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
