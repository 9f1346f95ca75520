package sita

import (
	"sita/internal/dist"
	"sita/internal/tags"
	"sita/internal/workload"
)

// TAGS (Task Assignment by Guessing Size) is the companion policy for
// distributed servers where job sizes are unknown at dispatch time: every
// job starts on the first host and is killed-and-restarted up the host
// chain each time it outlives that host's cutoff. See internal/tags.

// TAGSResult aggregates one TAGS simulation.
type TAGSResult = tags.Result

// TAGSAnalysis is the analytic model of a TAGS system.
type TAGSAnalysis = tags.Analysis

// SimulateTAGS runs jobs through a TAGS system with the given internal kill
// cutoffs (len = hosts-1, ascending). Panics if a cutoff is negative or
// NaN or the cutoffs do not ascend, warmup is outside [0, 1), or the jobs
// are not sorted by arrival or a job's arrival is not finite or its size
// not finite and > 0; a bad job's panic names its index.
func SimulateTAGS(jobs []Job, cutoffs []float64, warmup float64) *TAGSResult {
	return tags.Simulate(jobs, cutoffs, warmup)
}

// NewTAGSAnalysis builds the analytic model for total arrival rate lambda.
func NewTAGSAnalysis(lambda float64, size dist.Distribution, cutoffs []float64) TAGSAnalysis {
	return tags.NewAnalysis(lambda, size, cutoffs)
}

// OptimalTAGSCutoffs searches for the kill cutoffs minimizing analytic mean
// slowdown for h hosts.
func OptimalTAGSCutoffs(lambda float64, size dist.Distribution, h int) ([]float64, error) {
	return tags.OptimalCutoffs(lambda, size, h)
}

// compile-time guard that the facade job type matches the tags package's.
var _ = func(j workload.Job) Job { return j }
