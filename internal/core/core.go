// Package core assembles the paper's primary contribution: size-interval
// task assignment with deliberately unbalanced load (SITA-U), derived from a
// workload characterization, packaged as ready-to-run dispatcher policies
// with analytic performance predictions.
//
// The flow a downstream user follows is exactly the paper's:
//
//  1. Characterize the workload (a size distribution, fitted or empirical).
//  2. Derive the size cutoff for the desired variant — equal-load (SITA-E),
//     slowdown-optimal (SITA-U-opt) or fairness (SITA-U-fair) — either
//     analytically from M/G/1 formulas or experimentally on half the trace.
//  3. Build the dispatcher policy (plain SITA for 2 hosts, the grouped
//     SITA+LWL hybrid for larger systems, section 5).
//  4. Predict performance analytically and/or simulate.
package core

import (
	"fmt"
	"math"

	"sita/internal/dist"
	"sita/internal/policy"
	"sita/internal/queueing"
	"sita/internal/server"
	"sita/internal/workload"
)

// Variant selects how the SITA cutoff is chosen.
type Variant int

// The three SITA variants the paper evaluates.
const (
	// SITAE equalizes the load on the two hosts (the best load-balancing
	// policy of section 3).
	SITAE Variant = iota
	// SITAUOpt unbalances load to minimize mean slowdown (section 4).
	SITAUOpt
	// SITAUFair unbalances load to equalize the expected slowdown of short
	// and long jobs (section 4).
	SITAUFair
	// SITARule uses the paper's rule of thumb (section 4.4): send load
	// fraction rho/2 to the short host at system load rho.
	SITARule
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case SITAE:
		return "SITA-E"
	case SITAUOpt:
		return "SITA-U-opt"
	case SITAUFair:
		return "SITA-U-fair"
	case SITARule:
		return "SITA-U-rule"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Variants lists all cutoff rules in presentation order.
func Variants() []Variant { return []Variant{SITAE, SITAUOpt, SITAUFair, SITARule} }

// DeriveCutoff computes the 2-host cutoff for the variant analytically.
// lambda is the total arrival rate into the 2-host system and size the job
// size distribution; system load is lambda*E[X]/2.
func DeriveCutoff(v Variant, lambda float64, size dist.Distribution) (float64, error) {
	switch v {
	case SITAE:
		return queueing.EqualLoadCutoff(size), nil
	case SITAUOpt:
		return queueing.OptimalCutoff(lambda, size)
	case SITAUFair:
		return queueing.FairCutoff(lambda, size)
	case SITARule:
		return queueing.RuleOfThumbCutoff(lambda, size), nil
	default:
		return 0, fmt.Errorf("core: unknown variant %d", int(v))
	}
}

// Design is a fully instantiated task assignment design for a distributed
// server: the derived cutoff, the dispatcher policy, and (for 2 hosts) the
// analytic prediction.
type Design struct {
	Variant Variant
	Hosts   int
	Load    float64
	// Cutoff separates short from long jobs (the single 2-host cutoff; for
	// h > 2 the grouped construction reuses it, per section 5).
	Cutoff float64
	// ShortHosts is the number of hosts in the short group (h/2, section
	// 5); 1 when h = 2.
	ShortHosts int
	// Predicted is the 2-host analytic report (per-host loads, mean and
	// variance of slowdown); zero-valued for h > 2 where the grouped
	// system has no closed form.
	Predicted queueing.Report
	// HasPrediction reports whether Predicted is populated.
	HasPrediction bool

	size dist.Distribution
}

// NewDesign derives the cutoff and builds the design for a system of hosts
// identical hosts at the given system load.
func NewDesign(v Variant, load float64, size dist.Distribution, hosts int) (*Design, error) {
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("core: system load %v outside (0, 1)", load)
	}
	if hosts < 2 {
		return nil, fmt.Errorf("core: need at least 2 hosts, got %d", hosts)
	}
	// The cutoff is always derived on the 2-host system at the same system
	// load (the paper's section-5 protocol).
	lambda2 := 2 * load / size.Moment(1)
	cut, err := DeriveCutoff(v, lambda2, size)
	if err != nil {
		return nil, fmt.Errorf("core: deriving %v cutoff: %w", v, err)
	}
	d := &Design{
		Variant:    v,
		Hosts:      hosts,
		Load:       load,
		Cutoff:     cut,
		ShortHosts: hosts / 2,
		size:       size,
	}
	if hosts == 2 {
		d.ShortHosts = 1
		d.Predicted = queueing.NewSITA(lambda2, size, []float64{cut}).Analyze()
		d.HasPrediction = true
	}
	return d, nil
}

// Policy builds a fresh dispatcher policy implementing the design. For two
// hosts it is plain SITA; for more, the section-5 grouped SITA+LWL hybrid.
func (d *Design) Policy() server.Policy {
	if d.Hosts == 2 {
		return policy.NewSITA(d.Variant.String(), []float64{d.Cutoff})
	}
	return policy.NewGroupedSITA(d.Variant.String(), d.Cutoff, d.ShortHosts)
}

// Classify reports 0 for a short job and 1 for a long one, the class labels
// used by the fairness audit.
func (d *Design) Classify(size float64) int {
	if size <= d.Cutoff {
		return 0
	}
	return 1
}

// ShortLoadFraction predicts the fraction of total work routed to the short
// side under this design.
func (d *Design) ShortLoadFraction() float64 {
	work := dist.PartialMoment(d.size, 1, 0, d.Cutoff)
	return work / d.size.Moment(1)
}

// RuleOfThumbFraction is the paper's section 4.4 heuristic: at system load
// rho the short host should carry load fraction rho/2 of the total.
func RuleOfThumbFraction(load float64) float64 { return load / 2 }

// FairnessAudit summarizes how evenly expected slowdown is spread across
// job classes in a simulation result.
type FairnessAudit struct {
	ShortMean float64 // mean slowdown of short jobs
	LongMean  float64 // mean slowdown of long jobs
	// Spread is max/min of the class means; 1 is perfectly fair.
	Spread float64
}

// Audit computes the fairness audit from a per-class simulation tally
// (server.Config.SizeClass must have been Design.Classify).
func (d *Design) Audit(res *server.Result) (FairnessAudit, error) {
	if res.Classes == nil {
		return FairnessAudit{}, fmt.Errorf("core: result has no class tally; set Config.SizeClass")
	}
	var audit FairnessAudit
	if s := res.Classes.Class(0); s != nil {
		audit.ShortMean = s.Mean()
	}
	if l := res.Classes.Class(1); l != nil {
		audit.LongMean = l.Mean()
	}
	audit.Spread = res.Classes.MaxSpread()
	return audit, nil
}

// ExperimentalCutoffs derives each variant's cutoff by simulation instead
// of analysis, mirroring the paper's protocol of deriving cutoffs on half
// the trace ("the experimental cutoffs are derived in the same way only
// that for a given cutoff we used simulation instead of analysis").
// Candidate cutoffs are laid on a geometric grid over the feasible range;
// for SITAUOpt the candidate minimizing simulated mean slowdown wins, for
// SITAUFair the one minimizing the short/long slowdown imbalance, and for
// SITAE the candidate balancing measured host loads. Every grid cutoff is
// simulated once and scores every variant from the same Result, so each
// returned cutoff is the one a search for that variant alone would find.
func ExperimentalCutoffs(variants []Variant, jobs []workload.Job, size dist.Distribution, gridN int) ([]float64, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("core: no variants to derive")
	}
	for _, v := range variants {
		switch v {
		case SITAUOpt, SITAUFair, SITAE:
		default:
			return nil, fmt.Errorf("core: experimental derivation unsupported for %v", v)
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: no derivation jobs")
	}
	if gridN < 2 {
		gridN = 16
	}
	// Infer the arrival rate from the derivation half itself.
	horizon := jobs[len(jobs)-1].Arrival
	if horizon <= 0 {
		return nil, fmt.Errorf("core: derivation jobs span zero time")
	}
	lambda := float64(len(jobs)) / horizon
	cLo, cHi, err := queueing.FeasibleCutoffRange(lambda, size)
	if err != nil {
		return nil, err
	}
	best := make([]float64, len(variants))
	bestScore := make([]float64, len(variants))
	for i := range bestScore {
		bestScore[i] = math.Inf(1)
	}
	logLo, logHi := math.Log(cLo), math.Log(cHi)
	for i := 0; i <= gridN; i++ {
		cut := math.Exp(logLo + (logHi-logLo)*float64(i)/float64(gridN))
		res := server.Run(jobs, server.Config{
			Hosts:          2,
			Policy:         policy.NewSITA("probe", []float64{cut}),
			WarmupFraction: 0.05,
			SizeClass: func(s float64) int {
				if s <= cut {
					return 0
				}
				return 1
			},
		})
		for vi, v := range variants {
			if score := experimentalScore(v, res); score < bestScore[vi] {
				best[vi], bestScore[vi] = cut, score
			}
		}
	}
	return best, nil
}

// experimentalScore is how far one simulated cutoff is from variant v's
// goal; lower is better. v must be SITAUOpt, SITAUFair or SITAE.
func experimentalScore(v Variant, res *server.Result) float64 {
	switch v {
	case SITAUOpt:
		return res.Slowdown.Mean()
	case SITAUFair:
		short, long := 1.0, 1.0
		if s := res.Classes.Class(0); s != nil && s.Count() > 0 {
			short = s.Mean()
		}
		if l := res.Classes.Class(1); l != nil && l.Count() > 0 {
			long = l.Mean()
		}
		return math.Abs(short - long)
	default: // SITAE
		fr := res.LoadFractions()
		return math.Abs(fr[0] - 0.5)
	}
}

// NewDesignFull derives a full (h-1)-cutoff SITA design for h hosts — the
// search the paper's section 5 deems too computationally expensive and
// replaces with the grouped 2-cutoff construction. It exists as an
// ablation: how much does the shortcut cost? The SITA-U-opt search is a
// coordinate descent whose trial moves re-evaluate only the two hosts a
// cutoff bounds; for the C90 profile at load 0.7 it takes about 10 ms at
// h = 4 and 50 ms at h = 8 (BenchmarkOptimalCutoffs in internal/queueing,
// one core of a 2-vCPU Xeon VM).
func NewDesignFull(v Variant, load float64, size dist.Distribution, hosts int) (*FullDesign, error) {
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("core: system load %v outside (0, 1)", load)
	}
	if hosts < 2 {
		return nil, fmt.Errorf("core: need at least 2 hosts, got %d", hosts)
	}
	lambda := float64(hosts) * load / size.Moment(1)
	var cuts []float64
	var err error
	switch v {
	case SITAE:
		cuts, err = queueing.EqualLoadCutoffs(size, hosts)
	case SITAUOpt:
		cuts, err = queueing.OptimalCutoffs(lambda, size, hosts)
	case SITAUFair:
		cuts, err = queueing.FairCutoffs(lambda, size, hosts)
	default:
		return nil, fmt.Errorf("core: full multi-cutoff design unsupported for %v", v)
	}
	if err != nil {
		return nil, fmt.Errorf("core: deriving full %v cutoffs: %w", v, err)
	}
	return &FullDesign{
		Variant:   v,
		Hosts:     hosts,
		Load:      load,
		Cutoffs:   cuts,
		Predicted: queueing.NewSITA(lambda, size, cuts).Analyze(),
	}, nil
}

// FullDesign is an h-host SITA design with per-host cutoffs and the full
// analytic prediction (which, unlike the grouped construction, has a
// closed form for every h).
type FullDesign struct {
	Variant   Variant
	Hosts     int
	Load      float64
	Cutoffs   []float64
	Predicted queueing.Report
}

// Policy builds the dispatcher policy implementing the design.
func (d *FullDesign) Policy() server.Policy {
	return policy.NewSITA(d.Variant.String()+"-multi", d.Cutoffs)
}
