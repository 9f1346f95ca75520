package sita

import (
	"fmt"
	"math/rand/v2"

	"sita/internal/core"
	"sita/internal/dist"
	"sita/internal/policy"
	"sita/internal/sim"
)

// The baseline policy constructors, re-exported so a caller can compare the
// paper's whole policy space through one import.

// NewRandomPolicy dispatches each job to a uniformly random host.
func NewRandomPolicy(rng *rand.Rand) Policy { return policy.NewRandom(rng) }

// NewRoundRobinPolicy dispatches jobs cyclically.
func NewRoundRobinPolicy() Policy { return policy.NewRoundRobin() }

// NewShortestQueuePolicy dispatches to the host with the fewest jobs.
func NewShortestQueuePolicy() Policy { return policy.NewShortestQueue() }

// NewLeastWorkLeftPolicy dispatches to the host with the least unfinished
// work.
func NewLeastWorkLeftPolicy() Policy { return policy.NewLeastWorkLeft() }

// NewCentralQueuePolicy holds jobs at the dispatcher until a host idles
// (equivalent to Least-Work-Left).
func NewCentralQueuePolicy() Policy { return policy.NewCentralQueue() }

// NewSITAPolicy builds a size-interval policy from explicit cutoffs.
func NewSITAPolicy(label string, cutoffs []float64) Policy {
	return policy.NewSITA(label, cutoffs)
}

// NewRNG derives a deterministic generator from a seed and stream index,
// for policies that need randomness.
func NewRNG(seed, stream uint64) *rand.Rand { return sim.NewRNG(seed, stream) }

// BaselinePolicies builds one fresh instance of every load-balancing
// baseline — each policy-table row that needs no size information — keyed
// by display name.
func BaselinePolicies(seed uint64) map[string]Policy {
	out := map[string]Policy{}
	for _, r := range core.Policies() {
		if r.New != nil {
			out[r.Name] = r.New(seed)
		}
	}
	return out
}

// Predict analytically evaluates a policy's mean slowdown for a system of
// hosts at the given load under the workload's size distribution. name is
// any spelling the policy table accepts: a display name ("Least-Work-Left"),
// a catalog key ("lwl") or an alias, case folded. Every policy but
// Shortest-Queue has a closed form; the SITA variants only for 2 hosts.
func Predict(name string, load float64, size dist.Distribution, hosts int) (meanSlowdown float64, err error) {
	r, ok := core.LookupPolicy(name)
	if !ok {
		return 0, fmt.Errorf("sita: unknown policy %q", name)
	}
	if r.Predict == nil {
		return 0, fmt.Errorf("sita: %s has no closed form", r.Name)
	}
	if err := checkSystem(load, hosts); err != nil {
		return 0, err
	}
	return r.Predict(load, size, hosts)
}

// checkSystem validates the system Predict and Compare model: a load in
// (0, 1), in the affirmative form so NaN fails too, and at least one host.
func checkSystem(load float64, hosts int) error {
	if !(load > 0 && load < 1) {
		return fmt.Errorf("sita: load must be in (0,1), got %v", load)
	}
	if hosts < 1 {
		return fmt.Errorf("sita: hosts must be >= 1, got %d", hosts)
	}
	return nil
}
