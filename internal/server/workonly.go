package server

import (
	"fmt"

	"sita/internal/hostindex"
)

// WorkOnly marks a Policy whose Assign reads system state at most through
// View's host-work queries — WorkLeft, Idle, MinWorkHost, MinWorkHostIn —
// and which always returns a host, never Central. Reading nothing
// qualifies: Random, Round-Robin and SITA, which look only at the job and
// their own sequential state, are members beside Least-Work-Left and the
// grouped SITA+LWL hybrid. A host's work left is its drain instant minus
// now, and on the direct path the drain instant is the host's Lindley
// clock itself (the engine's readyAt is built by the same chain of
// additions), so every member runs on the heap-free direct path, with the
// four queries answered from the clocks (see workView). Job counts and
// the idle freelist (NumJobs, MinJobsHost, NextIdleHost) are not
// derivable from the clocks and stay off limits, as do pull policies,
// which need the engine's central queue.
//
// The capability is a method rather than a bare marker interface because
// wrappers (Misclassify, EstimatedSITA) must forward their inner policy's
// answer at run time: wrapping Shortest-Queue is not work-only, wrapping
// SITA or Least-Work-Left is. The contract is enforced three ways: the
// `oblivious` analyzer in internal/analysis rejects declarations whose
// Assign statically reaches a forbidden View query, the direct path's
// view panics on those queries and the replay loop on a returned
// Central, and the differential tests replay every work-only policy
// through both paths and diff the record streams.
type WorkOnly interface {
	Policy
	// WorkOnly reports whether this instance's Assign reads no system
	// state beyond host work.
	WorkOnly() bool
}

// IsWorkOnly reports whether p declares and currently claims the
// work-only capability.
func IsWorkOnly(p Policy) bool {
	w, ok := p.(WorkOnly)
	return ok && w.WorkOnly()
}

// workView is the View the direct path hands its policy. It answers the
// host-work queries from the replay's Lindley clocks (free[i] is the
// instant host i drains) at the arriving job's instant now, with the same
// floats the engine's readyAt-based answers use:
//
//   - WorkLeft(i) = free[i]-now when positive, else 0 — the engine's
//     readyAt-now, clamped;
//   - Idle(i) = free[i] < now. A departure exactly at now still counts as
//     busy: arrival events precede every departure at the same instant,
//     so the engine has not yet released that host;
//   - MinWorkHost/MinWorkHostIn from a hostindex.TimedMin keyed by free[]:
//     every host with free <= now (drained, or draining exactly now) has
//     zero work left and the lowest such index wins, as in the engine's
//     index.
//
// The index is built from free[] on the first argmin query and kept
// current by the replay loop from then on (indexed), so a policy that
// never asks an argmin — Random, Round-Robin, SITA, a WorkLeft scan —
// pays no index work. The queries the clocks cannot answer (NumJobs,
// MinJobsHost, NextIdleHost) panic.
type workView struct {
	policy  Policy             // named by the panics
	free    []float64          // the runner's Lindley clocks
	work    hostindex.TimedMin // hosts keyed by free[]; key <= now is drained
	now     float64            // arrival instant of the job being assigned
	indexed bool               // work was built and is kept current
}

// reset arms the view for one run over the given clocks. The index keeps
// its backing arrays across runs and is rebuilt on the first query.
func (v *workView) reset(p Policy, free []float64) {
	*v = workView{policy: p, free: free, work: v.work}
}

// Hosts reports the host count.
func (v *workView) Hosts() int { return len(v.free) }

// violate reports a broken capability claim. Panics if called at all:
// reaching a query the capability rules out means the policy's
// declaration is wrong, and simulating on would produce records that
// silently diverge from the engine.
func (v *workView) violate(method string) int {
	panic(fmt.Sprintf("server: policy %q claims WorkOnly but read View.%s on the direct path", v.policy.Name(), method))
}

// NumJobs panics: work-only policies may not read it.
func (v *workView) NumJobs(int) int { return v.violate("NumJobs") }

// MinJobsHost panics: work-only policies may not read it.
func (v *workView) MinJobsHost() int { return v.violate("MinJobsHost") }

// NextIdleHost panics: work-only policies may not read it.
func (v *workView) NextIdleHost() int { return v.violate("NextIdleHost") }

// WorkLeft reports host i's unfinished work at the current arrival.
func (v *workView) WorkLeft(i int) float64 {
	if f := v.free[i]; f > v.now {
		return f - v.now
	}
	return 0
}

// Idle reports whether host i has drained strictly before the current
// arrival.
func (v *workView) Idle(i int) bool { return v.free[i] < v.now }

// MinWorkHost reports the host a lowest-index-wins WorkLeft scan picks.
func (v *workView) MinWorkHost() int {
	if !v.indexed {
		v.index()
	}
	return v.work.ArgMin(v.now)
}

// MinWorkHostIn is MinWorkHost over hosts lo <= i < hi.
// Panics if the range is empty or out of bounds.
func (v *workView) MinWorkHostIn(lo, hi int) int {
	if !v.indexed {
		v.index()
	}
	return v.work.ArgMinRange(lo, hi, v.now)
}

// index builds the work index from the clocks on the first argmin query;
// a fresh host's -Inf clock is the index's drained key.
func (v *workView) index() {
	v.work.Reset(len(v.free))
	for i, f := range v.free {
		v.work.SetKey(i, f)
	}
	v.indexed = true
}
