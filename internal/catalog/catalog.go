// Package catalog is the shared registry of user-facing names and
// parameter contracts: the names of the policy table's rows (see
// core.PolicyRow), the built-in workload profiles, and the validation
// rules every entry point (the cmd/ binaries and the simd HTTP service)
// applies to common parameters before running anything.
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
	"sita/internal/trace"
)

// PolicyNames lists every accepted policy name in presentation order:
// the policy table's keys. Aliases (rr, sq, cq, least-work-left) are
// accepted by Build but not listed.
func PolicyNames() []string {
	rows := core.Policies()
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Key
	}
	return names
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

// MaxHosts is the largest host count any entry point accepts. A server
// allocates per-host state (≈ 150 B a host) before its first job runs, so
// without a cap one request could ask for gigabytes; no experiment or
// benchmark uses more than 1024 hosts.
const MaxHosts = 65536

// CheckHosts validates a host count: in [1, MaxHosts].
func CheckHosts(h int) error {
	if h < 1 {
		return fmt.Errorf("hosts must be >= 1, got %d", h)
	}
	if h > MaxHosts {
		return fmt.Errorf("hosts must be <= %d, got %d", MaxHosts, h)
	}
	return nil
}

// CheckAdviceHosts validates the host count of a SITA advice request: in
// [2, MaxHosts], since every SITA design splits jobs between at least two
// hosts.
func CheckAdviceHosts(h int) error {
	if h < 2 {
		return fmt.Errorf("SITA advice needs at least 2 hosts, got %d", h)
	}
	return CheckHosts(h)
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
	_, err := CanonicalPolicy(name)
	return err
}

// CheckProfile validates a built-in profile name, naming the valid values
// on failure.
func CheckProfile(name string) error {
	if _, ok := trace.Profiles()[name]; !ok {
		return fmt.Errorf("unknown profile %q (have: %s)", name, strings.Join(ProfileNames(), ", "))
	}
	return nil
}

// CanonicalPolicy returns the canonical spelling of a policy name (aliases
// resolved, case folded), or an error naming the valid values.
func CanonicalPolicy(name string) (string, error) {
	r, ok := core.LookupPolicy(name)
	if !ok {
		return "", fmt.Errorf("unknown policy %q (have: %s)", name, strings.Join(PolicyNames(), ", "))
	}
	return r.Key, nil
}

// Build constructs the named policy for a workload at the given system
// load on the given host count. SITA variants return the derived Design
// alongside the policy (nil for size-oblivious policies) so callers can
// classify jobs and audit fairness. The seed feeds only the Random
// policy's generator.
func Build(name string, load float64, wl *sita.Workload, hosts int, seed uint64) (sita.Policy, *sita.Design, error) {
	r, ok := core.LookupPolicy(name)
	if !ok {
		return nil, nil, CheckPolicy(name)
	}
	return r.Build(load, wl.Size, hosts, seed)
}
