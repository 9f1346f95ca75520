package simtest

import "sita/internal/workload"

// Property evaluates a job trace and returns nil if the property holds,
// or a descriptive error for the (first) violation. Properties must be
// deterministic: the shrinker re-evaluates candidate traces many times
// and relies on a failure staying a failure.
type Property func(jobs []workload.Job) error

// Shrink minimizes a failing trace with the ddmin strategy: repeatedly
// try deleting contiguous chunks (first halves, then quarters, down to
// single jobs) and keep any deletion that still fails the property,
// restarting at coarse granularity after each success. The result is
// 1-minimal — deleting any single remaining job makes the property
// pass — unless the run budget maxEvals is exhausted first.
//
// Shrink is a pure function of (jobs, prop, maxEvals): same inputs,
// same minimized trace. It returns the minimized trace and the error
// the property reports on it. If jobs does not fail prop at all, Shrink
// returns (nil, nil). Relative arrival order is preserved; job IDs are
// left as-is (server.Run stamps arrival ordinals on its own copies).
func Shrink(jobs []workload.Job, prop Property, maxEvals int) ([]workload.Job, error) {
	evals := 0
	check := func(cand []workload.Job) error {
		evals++
		return prop(cand)
	}
	lastErr := check(jobs)
	if lastErr == nil {
		return nil, nil
	}
	cur := append([]workload.Job(nil), jobs...)
	chunks := 2
	for len(cur) > 1 && evals < maxEvals {
		shrunk := false
		size := (len(cur) + chunks - 1) / chunks
		for lo := 0; lo < len(cur) && evals < maxEvals; {
			hi := lo + size
			if hi > len(cur) {
				hi = len(cur)
			}
			cand := make([]workload.Job, 0, len(cur)-(hi-lo))
			cand = append(cand, cur[:lo]...)
			cand = append(cand, cur[hi:]...)
			if err := check(cand); err != nil {
				cur, lastErr = cand, err
				shrunk = true
				// The slice got shorter; keep the same chunk size and
				// retry from this offset.
				continue
			}
			lo = hi
		}
		if shrunk {
			chunks = 2 // restart coarse after progress
			continue
		}
		if size == 1 {
			break // 1-minimal
		}
		chunks *= 2
		if chunks > len(cur) {
			chunks = len(cur)
		}
	}
	return cur, lastErr
}
