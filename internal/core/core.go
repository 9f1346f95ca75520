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
//
// Advise runs steps 1 and 2 (and, on 2 hosts, the analytic step 4) for
// every variant and recommends one; simd's /v1/advise and cmd/advisor
// both report it.
package core

import (
	"fmt"
	"math"

	"sita/internal/dist"
	"sita/internal/memo"
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

// cutoffKey identifies one cutoff search: variant v's hosts-1 cutoffs
// for arrival rate lambda and the size distribution. DeriveCutoff is the
// 2-host search, which the full searches of NewDesignFull delegate to at
// hosts = 2, so the two share entries.
type cutoffKey struct {
	variant Variant
	lambda  float64
	hosts   int
	size    dist.BoundedPareto
}

// cutoffMemo memoizes the cutoff searches process-wide. The section-5
// protocol derives every design's cutoff on the 2-host system at the
// design's load, so a sweep asks for the same few cutoffs once per host
// count, policy and driver; every simd miss re-derives its profile's.
// Each search is a pure function of its key. Values are shared and must
// not be written. The bound keeps a server answering arbitrary loads
// from growing without limit.
var cutoffMemo = memo.New[cutoffKey, []float64](4096, nil)

// ClearCutoffMemo forgets every memoized cutoff search, so the next
// request for each searches again, as in a fresh process. Benchmarks
// that time repeated runs call it between runs.
func ClearCutoffMemo() { cutoffMemo.Clear() }

// memoCutoffs answers search through the cutoff memo when size is a
// value the key can hold, and computes directly otherwise. A NaN lambda
// or size parameter would make a key that never equals itself, so it
// computes directly too.
func memoCutoffs(v Variant, lambda float64, size dist.Distribution, hosts int, search func() ([]float64, error)) ([]float64, error) {
	bp, ok := size.(dist.BoundedPareto)
	key := cutoffKey{variant: v, lambda: lambda, hosts: hosts, size: bp}
	if !ok || key != key {
		return search()
	}
	cuts, _, err := cutoffMemo.Do(key, search)
	return cuts, err
}

// DeriveCutoff computes the 2-host cutoff for the variant analytically.
// lambda is the total arrival rate into the 2-host system and size the job
// size distribution; system load is lambda*E[X]/2. Cutoffs for a
// dist.BoundedPareto size are derived once per process and then answered
// from memory.
func DeriveCutoff(v Variant, lambda float64, size dist.Distribution) (float64, error) {
	cuts, err := memoCutoffs(v, lambda, size, 2, func() ([]float64, error) {
		cut, err := deriveCutoff(v, lambda, size)
		if err != nil {
			return nil, err
		}
		return []float64{cut}, nil
	})
	if err != nil {
		return 0, err
	}
	return cuts[0], nil
}

// deriveCutoff is DeriveCutoff's search, uncached.
func deriveCutoff(v Variant, lambda float64, size dist.Distribution) (float64, error) {
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
	if err := validateDesign(load, hosts); err != nil {
		return nil, err
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
		// Only the optimizing searches guarantee a stable split; the
		// rule of thumb can leave a host overloaded near load 1.
		sys := queueing.NewSITA(lambda2, size, []float64{cut})
		if !sys.Feasible() {
			return nil, fmt.Errorf("core: %v cutoff %v leaves a host unstable at load %v: %w",
				v, cut, load, queueing.ErrInfeasible)
		}
		d.ShortHosts = 1
		d.Predicted = sys.Analyze()
		d.HasPrediction = true
	}
	return d, nil
}

// validateDesign checks the arguments shared by NewDesign and
// NewDesignFull. The affirmative form rejects a NaN load, which the
// cutoff searches would turn into a design predicting +Inf slowdown.
func validateDesign(load float64, hosts int) error {
	if !(load > 0 && load < 1) {
		return fmt.Errorf("core: system load %v outside (0, 1)", load)
	}
	if hosts < 2 {
		return fmt.Errorf("core: need at least 2 hosts, got %d", hosts)
	}
	return nil
}

// Advice is the paper's flow run for one workload and system: the size
// characterization, every variant's design, and the recommendation.
type Advice struct {
	// MeanSize and SizeSCV are the size distribution's mean and squared
	// coefficient of variation.
	MeanSize, SizeSCV float64
	// TailCutoff is the size above which the biggest jobs carry half the
	// load; TailFraction is the fraction of jobs above it.
	TailCutoff, TailFraction float64
	// Variants holds one entry per element of Variants(), in order.
	Variants []VariantDesign
	// Recommended is SITA-U-fair's design, or nil when its search is
	// infeasible. SITA-U-opt shares that feasibility range
	// (queueing.FeasibleCutoffRange), so it is never feasible there
	// either.
	Recommended *Design
}

// VariantDesign is one variant's design, or the error deriving it.
type VariantDesign struct {
	Variant Variant
	Design  *Design
	Err     error
}

// Advise characterizes the size distribution, derives every variant's
// design for hosts identical hosts at the system load, and recommends
// the paper's bottom line: SITA-U-fair, nearly optimal and fair.
func Advise(load float64, size dist.BoundedPareto, hosts int) Advice {
	tail := size.LoadCutoff(0.5)
	a := Advice{
		MeanSize:     size.Moment(1),
		SizeSCV:      dist.SquaredCV(size),
		TailCutoff:   tail,
		TailFraction: 1 - size.CDF(tail),
	}
	for _, v := range Variants() {
		d, err := NewDesign(v, load, size, hosts)
		a.Variants = append(a.Variants, VariantDesign{Variant: v, Design: d, Err: err})
	}
	for _, vd := range a.Variants {
		if vd.Variant == SITAUFair {
			a.Recommended = vd.Design
		}
	}
	return a
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
// (server.Config.SizeClass must have been Design.Classify). It returns an
// error when either class saw no jobs after warm-up: an empty class has
// no mean slowdown, and a spread over one class would read as perfectly
// fair.
func (d *Design) Audit(res *server.Result) (FairnessAudit, error) {
	if res.Classes == nil {
		return FairnessAudit{}, fmt.Errorf("core: result has no class tally; set Config.SizeClass")
	}
	short, long := res.Classes.Class(0), res.Classes.Class(1)
	if short == nil || short.Count() == 0 || long == nil || long.Count() == 0 {
		return FairnessAudit{}, fmt.Errorf("core: fairness audit needs both short and long jobs after warm-up")
	}
	return FairnessAudit{
		ShortMean: short.Mean(),
		LongMean:  long.Mean(),
		Spread:    res.Classes.MaxSpread(),
	}, nil
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
	if err := validateDesign(load, hosts); err != nil {
		return nil, err
	}
	lambda := float64(hosts) * load / size.Moment(1)
	var search func() ([]float64, error)
	switch v {
	case SITAE:
		search = func() ([]float64, error) { return queueing.EqualLoadCutoffs(size, hosts) }
	case SITAUOpt:
		search = func() ([]float64, error) { return queueing.OptimalCutoffs(lambda, size, hosts) }
	case SITAUFair:
		search = func() ([]float64, error) { return queueing.FairCutoffs(lambda, size, hosts) }
	default:
		return nil, fmt.Errorf("core: full multi-cutoff design unsupported for %v", v)
	}
	cuts, err := memoCutoffs(v, lambda, size, hosts, search)
	if err != nil {
		return nil, fmt.Errorf("core: deriving full %v cutoffs: %w", v, err)
	}
	return &FullDesign{
		Variant:   v,
		Hosts:     hosts,
		Load:      load,
		Cutoffs:   append([]float64(nil), cuts...), // the memo's copy stays unwritten
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
