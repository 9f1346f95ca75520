// Package catalog is the shared registry of user-facing names and
// parameter contracts: the task assignment policies a caller can name, the
// built-in workload profiles, and the validation rules every entry point
// (the cmd/ binaries and the simd HTTP service) applies to common
// parameters before running anything.
//
// Centralizing this keeps the surfaces consistent: a policy name accepted
// by `sita.Compare` is accepted by `POST /v1/simulate`, rejections
// carry the same one-line message naming the valid values everywhere, and
// invalid parameters are caught at the boundary instead of panicking deep
// inside internal/server.
//
// Building a policy is deterministic: the same (name, load, workload,
// hosts, seed) tuple always yields a policy whose simulation output is
// byte-identical, which is what makes service responses cacheable.
package catalog

import (
	"fmt"
	"sort"
	"strings"

	"sita"
	"sita/internal/core"
	"sita/internal/policy"
	"sita/internal/sim"
	"sita/internal/trace"
)

// PolicyNames lists every accepted policy name in presentation order.
// Aliases (rr, sq, cq, least-work-left) are accepted by Build but not
// listed.
func PolicyNames() []string {
	return []string{"random", "round-robin", "shortest-queue", "lwl",
		"central-queue", "sita-e", "sita-u-opt", "sita-u-fair", "sita-u-rule"}
}

// ProfileNames lists the built-in workload profiles in sorted order.
func ProfileNames() []string {
	m := trace.Profiles()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CheckLoad validates a system load: it must lie strictly inside (0, 1),
// the open interval where every queueing formula and simulation is stable.
func CheckLoad(load float64) error {
	if !(load > 0 && load < 1) {
		return fmt.Errorf("load must be in (0,1), got %v", load)
	}
	return nil
}

// CheckWarmup validates a warmup fraction: [0, 1) — excluding every job
// from statistics is never meaningful. Written in the affirmative form
// so NaN (which fails every comparison) is rejected rather than slipping
// through a negated range check.
func CheckWarmup(w float64) error {
	if !(w >= 0 && w < 1) {
		return fmt.Errorf("warmup must be in [0,1), got %v", w)
	}
	return nil
}

// CheckWorkers validates a worker count: at least 1.
func CheckWorkers(w int) error {
	if w < 1 {
		return fmt.Errorf("workers must be >= 1, got %d", w)
	}
	return nil
}

// CheckHosts validates a host count: at least 1.
func CheckHosts(h int) error {
	if h < 1 {
		return fmt.Errorf("hosts must be >= 1, got %d", h)
	}
	return nil
}

// CheckJobs validates a job-count cap: 0 (profile default) or positive.
func CheckJobs(jobs int) error {
	if jobs < 0 {
		return fmt.Errorf("jobs must be >= 0 (0 = profile default), got %d", jobs)
	}
	return nil
}

// CheckPolicy validates a policy name, naming the valid values on failure.
func CheckPolicy(name string) error {
	if _, ok := canonicalPolicy(name); !ok {
		return fmt.Errorf("unknown policy %q (have: %s)", name, strings.Join(PolicyNames(), ", "))
	}
	return nil
}

// CheckProfile validates a built-in profile name, naming the valid values
// on failure.
func CheckProfile(name string) error {
	if _, ok := trace.Profiles()[name]; !ok {
		return fmt.Errorf("unknown profile %q (have: %s)", name, strings.Join(ProfileNames(), ", "))
	}
	return nil
}

// canonicalPolicy resolves aliases to the canonical policy name.
func canonicalPolicy(name string) (string, bool) {
	switch strings.ToLower(name) {
	case "random":
		return "random", true
	case "round-robin", "rr":
		return "round-robin", true
	case "shortest-queue", "sq":
		return "shortest-queue", true
	case "lwl", "least-work-left":
		return "lwl", true
	case "central-queue", "cq":
		return "central-queue", true
	case "sita-e":
		return "sita-e", true
	case "sita-u-opt":
		return "sita-u-opt", true
	case "sita-u-fair":
		return "sita-u-fair", true
	case "sita-u-rule":
		return "sita-u-rule", true
	}
	return "", false
}

// CanonicalPolicy returns the canonical spelling of a policy name (aliases
// resolved, case folded), or an error naming the valid values.
func CanonicalPolicy(name string) (string, error) {
	c, ok := canonicalPolicy(name)
	if !ok {
		return "", CheckPolicy(name)
	}
	return c, nil
}

// Build constructs the named policy for a workload at the given system
// load on the given host count. SITA variants return the derived Design
// alongside the policy (nil for size-oblivious policies) so callers can
// classify jobs and audit fairness. The seed feeds only the Random
// policy's generator (stream 100, the convention every entry point
// shares).
func Build(name string, load float64, wl *sita.Workload, hosts int, seed uint64) (sita.Policy, *sita.Design, error) {
	c, ok := canonicalPolicy(name)
	if !ok {
		return nil, nil, CheckPolicy(name)
	}
	switch c {
	case "random":
		return policy.NewRandom(sim.NewRNG(seed, 100)), nil, nil
	case "round-robin":
		return policy.NewRoundRobin(), nil, nil
	case "shortest-queue":
		return policy.NewShortestQueue(), nil, nil
	case "lwl":
		return policy.NewLeastWorkLeft(), nil, nil
	case "central-queue":
		return policy.NewCentralQueue(), nil, nil
	default: // the SITA family
		var v sita.Variant
		switch c {
		case "sita-e":
			v = core.SITAE
		case "sita-u-opt":
			v = core.SITAUOpt
		case "sita-u-fair":
			v = core.SITAUFair
		default:
			v = core.SITARule
		}
		d, err := sita.NewDesign(v, load, wl.Size, hosts)
		if err != nil {
			return nil, nil, err
		}
		return d.Policy(), d, nil
	}
}
