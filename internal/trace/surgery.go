package trace

import "fmt"

// Trace surgery: taking a prefix of a job log as a smaller experiment
// input. Truncate and SplitHalf, the other derivations, live in trace.go.

// Head returns a trace holding the first n jobs (all jobs if n exceeds
// the length). Like every derivation it shares the parent's columns.
func (t *Trace) Head(n int) *Trace {
	n = min(n, t.Len())
	return t.derive(t.Name, fmt.Sprintf("/head%d", n), 0, n)
}
