// Package oblivious fixes the oblivious analyzer's behavior: types that
// declare the WorkOnly capability must keep the job-count and freelist
// queries out of Assign and its static callees; Hosts() and the host-work
// queries stay legal, non-declaring types stay unchecked, and interface
// dispatch to an inner policy is not followed (the wrapper pattern).
package oblivious

// Job and View mirror the server package's shapes; fixtures cannot import
// module packages, and both analyzers match by name (interface named View,
// its state-query methods).
type Job struct {
	ID      int
	Arrival float64
	Size    float64
}

type View interface {
	Hosts() int
	NumJobs(i int) int
	WorkLeft(i int) float64
	Idle(i int) bool
	MinWorkHost() int
	MinWorkHostIn(lo, hi int) int
	MinJobsHost() int
	NextIdleHost() int
}

type Policy interface {
	Name() string
	Assign(j Job, v View) int
}

// RoundRobinish is honestly state-blind: Hosts() is configuration, not
// state, so no diagnostic.
type RoundRobinish struct{ next int }

func (*RoundRobinish) Name() string { return "rr" }
func (p *RoundRobinish) Assign(_ Job, v View) int {
	idx := p.next
	p.next = (p.next + 1) % v.Hosts()
	return idx
}
func (*RoundRobinish) WorkOnly() bool { return true }

// Honest does not declare the capability, so its state reads are the
// engine path's business, not this analyzer's.
type Honest struct{}

func (Honest) Name() string             { return "honest" }
func (Honest) Assign(_ Job, v View) int { return v.MinJobsHost() }

// Wrapper delegates Assign through the Policy interface. Interface
// dispatch is not followed (the inner policy is checked where it declares
// the capability; the wrapper's claim is resolved at run time), so
// wrapping Honest produces no diagnostic here.
type Wrapper struct{ inner Policy }

func (w *Wrapper) Name() string             { return "wrap(" + w.inner.Name() + ")" }
func (w *Wrapper) Assign(j Job, v View) int { return w.inner.Assign(j, v) }
func (w *Wrapper) WorkOnly() bool           { return false }

// Allowed demonstrates the shared suppression escape hatch.
type Allowed struct{}

func (Allowed) Name() string { return "allowed" }
func (Allowed) Assign(_ Job, v View) int {
	//lint:allow oblivious fixture demo: suppression keeps the claim reviewable in place
	return v.NextIdleHost()
}
func (Allowed) WorkOnly() bool { return true }

// WorkLWL honestly declares WorkOnly: host-work queries are what the
// capability allows, so no diagnostic.
type WorkLWL struct{}

func (WorkLWL) Name() string { return "work-lwl" }
func (WorkLWL) Assign(_ Job, v View) int {
	if v.Idle(0) || v.WorkLeft(0) == 0 {
		return 0
	}
	if v.Hosts() > 2 {
		return v.MinWorkHostIn(1, v.Hosts())
	}
	return v.MinWorkHost()
}
func (WorkLWL) WorkOnly() bool { return true }

// WorkLiar claims WorkOnly but reads job counts and the idle freelist.
type WorkLiar struct{}

func (WorkLiar) Name() string { return "work-liar" }
func (WorkLiar) Assign(_ Job, v View) int {
	if v.NumJobs(0) == 0 { // want `\(oblivious\.WorkLiar\)\.Assign reads View\.NumJobs but its receiver declares the WorkOnly capability`
		return 0
	}
	if i := v.NextIdleHost(); i >= 0 { // want `\(oblivious\.WorkLiar\)\.Assign reads View\.NextIdleHost but its receiver declares the WorkOnly capability`
		return i
	}
	return v.MinWorkHost()
}
func (WorkLiar) WorkOnly() bool { return true }

// WorkLaunderer hides a job-count read behind a static helper; the walk
// names the path.
type WorkLaunderer struct{}

func (WorkLaunderer) Name() string             { return "work-launderer" }
func (WorkLaunderer) Assign(_ Job, v View) int { return fewestJobs(v) }
func (WorkLaunderer) WorkOnly() bool           { return true }

func fewestJobs(v View) int {
	return v.MinJobsHost() // want `oblivious\.fewestJobs reads View\.MinJobsHost but its receiver declares the WorkOnly capability \(reached via \(oblivious\.WorkLaunderer\)\.Assign -> oblivious\.fewestJobs\)`
}
