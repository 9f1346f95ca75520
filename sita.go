// Package sita is a library for studying task assignment in distributed
// supercomputing servers, reproducing Schroeder and Harchol-Balter,
// "Evaluation of Task Assignment Policies for Supercomputing Servers: The
// Case for Load Unbalancing and Fairness" (HPDC 2000 / Cluster Computing 7).
//
// The model is a bank of identical hosts fed by one stream of batch jobs:
// each job is dispatched to exactly one host and hosts run their queues
// FCFS, one job at a time, run-to-completion. The library provides
//
//   - every task assignment policy the paper evaluates (Random, Round-Robin,
//     Shortest-Queue, Least-Work-Left, Central-Queue, SITA-E) plus the
//     paper's contribution, the load-unbalancing SITA-U-opt and SITA-U-fair;
//   - an exact discrete-event simulator of the distributed server;
//   - the M/G/1 / M/M/h / M/G/h queueing analysis behind the paper's proofs,
//     including the cutoff optimizers that define the SITA variants;
//   - calibrated reconstructions of the paper's PSC C90 / J90 and CTC SP2
//     workloads, a synthetic trace generator, and SWF trace interchange;
//   - drivers regenerating every table and figure of the paper.
//
// # Quick start
//
//	wl, _ := sita.LoadWorkload("psc-c90", 42)
//	design, _ := sita.NewDesign(sita.SITAUFair, 0.7, wl.Size, 2)
//	res := sita.Simulate(design.Policy(), wl.JobsAtLoad(0.7, 2, true, 42), 2)
//	fmt.Println(res.Slowdown.Mean())
//
// The deeper machinery lives in the internal packages (dist, queueing,
// server, policy, trace, experiment); this package re-exports the surface a
// downstream user needs.
package sita

import (
	"fmt"
	"os"

	"sita/internal/core"
	"sita/internal/dist"
	"sita/internal/experiment"
	"sita/internal/server"
	"sita/internal/trace"
	"sita/internal/workload"
)

// Variant selects a SITA cutoff rule; see the constants below.
type Variant = core.Variant

// The SITA variants: equal-load, slowdown-optimal, fairness, and the
// paper's rho/2 rule of thumb.
const (
	SITAE     = core.SITAE
	SITAUOpt  = core.SITAUOpt
	SITAUFair = core.SITAUFair
	SITARule  = core.SITARule
)

// Design is a derived task assignment design (cutoff, policy factory,
// analytic prediction); see internal/core.
type Design = core.Design

// NewDesign derives the cutoff for a variant and packages it as a design
// for a system of hosts at the given system load.
func NewDesign(v Variant, load float64, size dist.Distribution, hosts int) (*Design, error) {
	return core.NewDesign(v, load, size, hosts)
}

// Policy is a task assignment rule usable with Simulate.
type Policy = server.Policy

// Result aggregates a simulation's metrics (slowdown/response/wait streams,
// per-host load accounting).
type Result = server.Result

// Job is one batch job: arrival time and service requirement.
type Job = workload.Job

// Profile describes a calibrated workload reconstruction.
type Profile = trace.Profile

// Trace is an ordered job log.
type Trace = trace.Trace

// Workload bundles a size distribution with a synthetic trace drawn from
// it, ready to re-time at any system load.
type Workload struct {
	Profile Profile
	// Size is the calibrated Bounded Pareto job-size distribution.
	Size dist.BoundedPareto
	// Trace is the generated job log (sizes plus bursty raw arrivals).
	Trace *Trace
}

// LoadWorkload generates the named built-in workload ("psc-c90", "psc-j90",
// "ctc-sp2") with the given seed.
func LoadWorkload(profile string, seed uint64) (*Workload, error) {
	p, err := trace.ByName(profile)
	if err != nil {
		return nil, err
	}
	return WorkloadFromProfile(p, seed)
}

// WorkloadFromProfile generates a workload from an arbitrary profile.
func WorkloadFromProfile(p Profile, seed uint64) (*Workload, error) {
	size, err := p.SizeDist()
	if err != nil {
		return nil, err
	}
	tr, err := trace.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	return &Workload{Profile: p, Size: size, Trace: tr}, nil
}

// WorkloadFromSWF reads a Standard Workload Format job log and calibrates a
// Bounded Pareto to its min/max/mean, so both trace-driven simulation and
// the analytic machinery are available.
func WorkloadFromSWF(path string) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sita: %w", err)
	}
	defer f.Close()
	tr, err := trace.ReadSWF(path, f)
	if err != nil {
		return nil, err
	}
	st := tr.ComputeStats()
	size, err := dist.FitBoundedParetoMean(st.Mean, st.Min, st.Max)
	if err != nil {
		return nil, fmt.Errorf("sita: calibrating %s: %w", path, err)
	}
	return &Workload{
		Profile: Profile{
			Name:        path,
			Description: "imported SWF trace",
			MinService:  st.Min,
			MaxService:  st.Max,
			MeanService: st.Mean,
			Jobs:        tr.Len(),
			GapSCV:      st.GapSCV,
		},
		Size:  size,
		Trace: tr,
	}, nil
}

// JobsAtLoad re-times the workload's trace to drive hosts unit-speed hosts
// at the target system load. poisson selects fresh Poisson arrivals
// (sections 2-5 of the paper) versus the trace's own bursty gaps rescaled
// (section 6).
func (w *Workload) JobsAtLoad(load float64, hosts int, poisson bool, seed uint64) []Job {
	return w.Trace.JobsAtLoad(load, hosts, poisson, seed)
}

// SimOptions tunes Simulate.
type SimOptions struct {
	// Warmup is the fraction of jobs excluded from statistics (default 0).
	Warmup float64
	// KeepRecords retains per-job records on the result.
	KeepRecords bool
	// SizeClass labels jobs for per-class statistics.
	SizeClass func(size float64) int
}

// Simulate runs the job list through a distributed server of hosts
// identical hosts under the policy. The list is never written, so one list
// may feed concurrent runs.
// Panics if hosts < 1, or if the jobs are not sorted by arrival or a job's
// arrival is not finite or its size not finite and > 0; the panic names
// the job's index.
func Simulate(p Policy, jobs []Job, hosts int) *Result {
	return SimulateOpts(p, jobs, hosts, SimOptions{})
}

// SimulateOpts is Simulate with explicit options. Panics as Simulate does,
// or if opts.Warmup is outside [0, 1).
func SimulateOpts(p Policy, jobs []Job, hosts int, opts SimOptions) *Result {
	return server.Run(jobs, server.Config{
		Hosts:          hosts,
		Policy:         p,
		WarmupFraction: opts.Warmup,
		KeepRecords:    opts.KeepRecords,
		SizeClass:      opts.SizeClass,
	})
}

// Experiment runs a named experiment driver ("table1", "fig2" ... "fig13",
// or an extension id) under the given configuration; see ExperimentIDs.
func Experiment(id string, cfg experiment.Config) ([]experiment.Table, error) {
	fn, ok := experiment.Drivers()[id]
	if !ok {
		return nil, fmt.Errorf("sita: unknown experiment %q", id)
	}
	return fn(cfg)
}

// ExperimentIDs lists the available experiment drivers in presentation
// order.
func ExperimentIDs() []string { return experiment.IDs() }

// DefaultExperimentConfig returns the configuration the reproduction uses.
func DefaultExperimentConfig() experiment.Config { return experiment.Default() }

// SimulatePS runs the job list on Processor-Sharing hosts instead of FCFS
// run-to-completion — the paper's footnote-1 perfectly-fair reference
// discipline (every job's expected slowdown is 1/(1-rho) on an M/G/1-PS
// host, independent of size).
// Panics as SimulateOpts does, or if the policy is a pull policy
// (Central-Queue): PS hosts have no central queue to hold a job in.
func SimulatePS(p Policy, jobs []Job, hosts int, opts SimOptions) *Result {
	return server.RunPS(jobs, server.Config{
		Hosts:          hosts,
		Policy:         p,
		WarmupFraction: opts.Warmup,
		KeepRecords:    opts.KeepRecords,
		SizeClass:      opts.SizeClass,
	})
}
