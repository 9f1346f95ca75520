package core

import (
	"fmt"
	"slices"
	"strings"

	"sita/internal/dist"
	"sita/internal/policy"
	"sita/internal/queueing"
	"sita/internal/server"
	"sita/internal/sim"
)

// PolicyRow is one task assignment policy of the paper's comparison: how
// callers name it, how to build it, and its closed-form prediction. The
// policy table (Policies) is the one list of policies; the catalog's
// names, the sita API and the experiment drivers all read it, so adding a
// policy is adding a row.
type PolicyRow struct {
	// Key is the canonical spelling every entry point accepts ("lwl").
	Key string
	// Aliases are the other accepted spellings ("least-work-left").
	Aliases []string
	// Name is the display name, which the built policy's Name() reports.
	Name string
	// New builds a load-balancing baseline, which needs no size
	// information; the seed feeds only Random's generator. Nil for the
	// SITA rows, which Build derives from the size distribution.
	New func(seed uint64) server.Policy
	// Predict is the closed-form mean slowdown of a system of hosts at
	// the load, nil where no closed form exists. It does not validate
	// its arguments.
	Predict func(load float64, size dist.Distribution, hosts int) (float64, error)
	// Pull marks a policy that holds jobs in a central queue until a host
	// idles (server.Central), so it cannot run on processor-sharing hosts.
	Pull bool

	variant Variant // the SITA rows' cutoff rule
}

// Build constructs a fresh instance of the row's policy for a system of
// hosts at the given load. A SITA row derives its design (NewDesign) and
// returns it alongside the policy; a baseline returns a nil Design.
func (r PolicyRow) Build(load float64, size dist.Distribution, hosts int, seed uint64) (server.Policy, *Design, error) {
	if r.New != nil {
		return r.New(seed), nil, nil
	}
	d, err := NewDesign(r.variant, load, size, hosts)
	if err != nil {
		return nil, nil, err
	}
	return d.Policy(), d, nil
}

// policyTable is the policy table in presentation order.
var policyTable = []PolicyRow{
	{Key: "random", Name: "Random",
		New:     func(seed uint64) server.Policy { return policy.NewRandom(sim.NewRNG(seed, 100)) },
		Predict: predictBy(queueing.RandomSplit)},
	{Key: "round-robin", Aliases: []string{"rr"}, Name: "Round-Robin",
		New:     func(uint64) server.Policy { return policy.NewRoundRobin() },
		Predict: predictBy(queueing.RoundRobinSplit)},
	{Key: "shortest-queue", Aliases: []string{"sq"}, Name: "Shortest-Queue",
		New: func(uint64) server.Policy { return policy.NewShortestQueue() }},
	{Key: "lwl", Aliases: []string{"least-work-left"}, Name: "Least-Work-Left",
		New:     func(uint64) server.Policy { return policy.NewLeastWorkLeft() },
		Predict: predictBy(queueing.LWL)},
	// Central-Queue is Least-Work-Left (a job starts when, and where, the
	// least-loaded host drains), so it shares LWL's prediction.
	{Key: "central-queue", Aliases: []string{"cq"}, Name: "Central-Queue",
		New:     func(uint64) server.Policy { return policy.NewCentralQueue() },
		Predict: predictBy(queueing.LWL), Pull: true},
	sitaRow("sita-e", SITAE),
	sitaRow("sita-u-opt", SITAUOpt),
	sitaRow("sita-u-fair", SITAUFair),
	sitaRow("sita-u-rule", SITARule),
}

// predictBy is a baseline's prediction from its queueing model at the
// total arrival rate hosts·load/E[X].
func predictBy[M interface{ MeanSlowdown() float64 }](
	model func(lambda float64, size dist.Distribution, hosts int) M,
) func(load float64, size dist.Distribution, hosts int) (float64, error) {
	return func(load float64, size dist.Distribution, hosts int) (float64, error) {
		lambda := float64(hosts) * load / size.Moment(1)
		return model(lambda, size, hosts).MeanSlowdown(), nil
	}
}

// sitaRow is variant v's row: its design's policy, and the design's
// analytic prediction, which has a closed form for 2 hosts only.
func sitaRow(key string, v Variant) PolicyRow {
	return PolicyRow{Key: key, Name: v.String(), variant: v,
		Predict: func(load float64, size dist.Distribution, hosts int) (float64, error) {
			if hosts != 2 {
				return 0, fmt.Errorf("core: %v prediction is closed-form for 2 hosts only, got %d", v, hosts)
			}
			d, err := NewDesign(v, load, size, hosts)
			if err != nil {
				return 0, err
			}
			return d.Predicted.MeanSlowdown, nil
		}}
}

// Policies returns the policy table in presentation order.
func Policies() []PolicyRow { return slices.Clone(policyTable) }

// LookupPolicy finds the row a name denotes: its key or one of its
// aliases, case folded. Every display name folds to one of these.
func LookupPolicy(name string) (PolicyRow, bool) {
	name = strings.ToLower(name)
	for _, r := range policyTable {
		if name == r.Key || slices.Contains(r.Aliases, name) {
			return r, true
		}
	}
	return PolicyRow{}, false
}
