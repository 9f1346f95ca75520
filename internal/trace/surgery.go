package trace

import (
	"fmt"

	"sita/internal/workload"
)

// Trace surgery: taking a prefix of a job log as a smaller experiment
// input. Truncate and SplitHalf, the other derivations, live in trace.go.

// Head returns a new trace holding the first n jobs (all jobs if n exceeds
// the length).
func (t *Trace) Head(n int) *Trace {
	if n > len(t.Jobs) {
		n = len(t.Jobs)
	}
	jobs := make([]workload.Job, n)
	copy(jobs, t.Jobs[:n])
	return t.derive(t.Name, fmt.Sprintf("/head%d", n), jobs)
}
