package server

import "sita/internal/hostindex"

// workView is the WorkView the direct path hands its policy. It answers
// the host-work queries from the replay's Lindley clocks (free[i] is the
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
// pays no index work. It implements WorkView and nothing more: the clocks
// cannot answer job counts or the idle freelist.
type workView struct {
	free    []float64          // the runner's Lindley clocks
	work    hostindex.TimedMin // hosts keyed by free[]; key <= now is drained
	now     float64            // arrival instant of the job being assigned
	indexed bool               // work was built and is kept current
}

// reset arms the view for one run over the given clocks. The index keeps
// its backing arrays across runs and is rebuilt on the first query.
func (v *workView) reset(free []float64) {
	*v = workView{free: free, work: v.work}
}

// Hosts reports the host count.
func (v *workView) Hosts() int { return len(v.free) }

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
