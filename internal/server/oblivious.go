package server

import (
	"fmt"

	"sita/internal/hostindex"
	"sita/internal/workload"
)

// Oblivious marks a Policy whose Assign decision is a pure function of the
// arriving job and the policy's own sequential state — it never consults
// the system state behind View (queue lengths, backlogs, idleness). Under
// an oblivious policy each FCFS host evolves as an independent single-
// server queue, so the whole simulation collapses to Lindley's recurrence
// (start = max(free, arrival); finish = start + size) and Run can take the
// heap-free direct path (RunDirect) instead of the discrete-event engine.
//
// The capability is a method rather than a bare marker interface because
// wrappers (Misclassify, EstimatedSITA) must forward their inner policy's
// answer at runtime: wrapping Shortest-Queue is not oblivious, wrapping
// SITA is. Implementations may read View.Hosts() — the host count is
// static configuration, not system state. The contract is enforced three
// ways: the `oblivious` analyzer in internal/analysis rejects capability
// declarations whose Assign statically reaches a View state query, the
// direct path hands policies a tripwire View whose state queries panic,
// and the differential tests replay every oblivious policy through both
// paths and diff the record streams.
type Oblivious interface {
	Policy
	// Oblivious reports whether this instance's Assign is state-blind.
	Oblivious() bool
}

// IsOblivious reports whether p declares and currently claims the
// oblivious capability.
func IsOblivious(p Policy) bool {
	o, ok := p.(Oblivious)
	return ok && o.Oblivious()
}

// WorkOnly marks a Policy whose Assign reads system state only through
// View's host-work queries — WorkLeft, Idle, MinWorkHost, MinWorkHostIn —
// and which always returns a host, never Central. Least-Work-Left and the
// grouped SITA+LWL hybrid are the members. A host's work left is its drain
// instant minus now, and on the direct path the drain instant is the
// host's Lindley clock itself (the engine's readyAt is built by the same
// chain of additions), so Run can take the direct path for these policies
// too: the view answers the four queries from the clocks (see workView).
// Job counts and the idle freelist (NumJobs, MinJobsHost, NextIdleHost)
// are not derivable from the clocks and stay off limits, as do pull
// policies, which need the engine's central queue.
//
// Like Oblivious, the capability is a method so wrappers (Misclassify)
// forward their inner policy's answer at run time, and it is enforced
// three ways: the `oblivious` analyzer rejects declarations whose Assign
// statically reaches a forbidden View query, the direct path's view
// panics on those queries and the replay loop on a returned Central, and
// the differential tests replay every work-only policy through both paths.
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

// directView is the View handed to claimed-oblivious policies on the
// direct path. Hosts answers — the host count is configuration, not
// state — and every state query panics: a policy that claims obliviousness
// and then reads system state would silently simulate garbage on the
// direct path, so the contract violation fails loudly instead. workView
// embeds it for the queries work-only policies must not make either.
type directView struct {
	hosts  int
	policy Policy
	claim  string // the capability the policy claimed: "Oblivious" or "WorkOnly"
}

// Hosts reports the host count.
func (v *directView) Hosts() int { return v.hosts }

// violate reports a broken capability claim. Panics if called at all:
// reaching a query the claimed capability rules out means the policy's
// declaration is wrong, and simulating on would produce records that
// silently diverge from the engine.
func (v *directView) violate(method string) int {
	panic(fmt.Sprintf("server: policy %q claims %s but read View.%s on the direct path", v.policy.Name(), v.claim, method))
}

// NumJobs panics: neither oblivious nor work-only policies may read it.
func (v *directView) NumJobs(int) int { return v.violate("NumJobs") }

// WorkLeft panics: oblivious policies must not read system state.
func (v *directView) WorkLeft(int) float64 { return float64(v.violate("WorkLeft")) }

// Idle panics: oblivious policies must not read system state.
func (v *directView) Idle(int) bool { return v.violate("Idle") != 0 }

// MinWorkHost panics: oblivious policies must not read system state.
func (v *directView) MinWorkHost() int { return v.violate("MinWorkHost") }

// MinWorkHostIn panics: oblivious policies must not read system state.
func (v *directView) MinWorkHostIn(lo, hi int) int { return v.violate("MinWorkHostIn") }

// MinJobsHost panics: neither oblivious nor work-only policies may read it.
func (v *directView) MinJobsHost() int { return v.violate("MinJobsHost") }

// NextIdleHost panics: neither oblivious nor work-only policies may read it.
func (v *directView) NextIdleHost() int { return v.violate("NextIdleHost") }

// workView is the View handed to work-only policies on the direct path.
// It answers the host-work queries from the replay's Lindley clocks
// (free[i] is the instant host i drains) at the arriving job's instant
// now, with the same floats the engine's readyAt-based answers use:
//
//   - WorkLeft(i) = free[i]-now when positive, else 0 — the engine's
//     readyAt-now, clamped;
//   - Idle(i) = free[i] < now. A departure exactly at now still counts as
//     busy: arrival events precede every departure at the same instant,
//     so the engine has not yet released that host;
//   - MinWorkHost/MinWorkHostIn from a hostindex.TimedMin keyed by free[],
//     whose sweep moves hosts with free <= now (drained, or draining
//     exactly now) into the zero class, as the engine's index does.
//
// The embedded directView keeps the queries the clocks cannot answer
// (NumJobs, MinJobsHost, NextIdleHost) panicking.
//
// workView also stands in for the policy in the replay loop (Name,
// Assign): it sets now to the job's arrival and brings the index up to
// date before delegating. The index update is lazy — the host chosen for
// the previous job gets its new clock (SetKey) at the next Assign, after
// the loop has advanced that clock — so the loop itself, which oblivious
// runs share, does no index work.
type workView struct {
	directView
	free []float64          // the runner's Lindley clocks
	work hostindex.TimedMin // hosts keyed by free[]; the zero class is drained
	now  float64            // arrival instant of the job being assigned
	last int                // host chosen for the previous job; -1 before the first
}

// reset arms the view for one run over the given clocks. The index keeps
// its backing arrays across runs.
func (v *workView) reset(p Policy, free []float64) {
	v.directView = directView{hosts: len(free), policy: p, claim: "WorkOnly"}
	v.free = free
	v.work.Reset(len(free))
	v.last = -1
}

// Name reports the wrapped policy's name, so the replay loop's panics
// name the policy at fault.
func (v *workView) Name() string { return v.policy.Name() }

// Assign records the previous assignment in the index, moves the view to
// the job's arrival instant and delegates to the policy with the view
// itself as its View.
//
//sim:noalloc
func (v *workView) Assign(j workload.Job, _ View) int {
	if v.last >= 0 {
		v.work.SetKey(v.last, v.free[v.last])
	}
	v.now = j.Arrival
	v.last = v.policy.Assign(j, v)
	return v.last
}

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
func (v *workView) MinWorkHost() int { return v.work.ArgMin(v.now) }

// MinWorkHostIn is MinWorkHost over hosts lo <= i < hi.
// Panics if the range is empty or out of bounds.
func (v *workView) MinWorkHostIn(lo, hi int) int { return v.work.ArgMinRange(lo, hi, v.now) }
