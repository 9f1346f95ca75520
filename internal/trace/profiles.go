// Package trace provides the workload substrate for the reproduction: the
// calibrated profiles of the paper's three job logs (PSC Cray C90, PSC Cray
// J90, CTC IBM SP2), a synthetic trace generator, Standard Workload Format
// (SWF) reading and writing so real logs can be substituted in, and the
// Table 1 statistics.
//
// Substitution note: the paper's PSC accounting logs are proprietary and
// the numeric Table 1 did not survive in the source text available to this
// reproduction. Profiles below are therefore calibrated from the facts the
// paper states in prose — C90 jobs span seconds to ~2.2e6 s with a very
// high squared coefficient of variation, the biggest ~1.3% of jobs carry
// half the load (section 4.3), J90 behaves "virtually identical" (appendix
// B), and CTC jobs are capped at 12 hours, giving "considerably lower
// variance" (section 2.1). Every experiment depends on these shape facts,
// not on the raw job counts, so the reproduction preserves the paper's
// qualitative results; EXPERIMENTS.md records the realized statistics next
// to the paper's claims.
package trace

import (
	"fmt"

	"sita/internal/dist"
	"sita/internal/memo"
)

// Profile describes one supercomputing workload: the statistics the trace
// generator targets, and the burstiness of the raw arrival process used in
// the non-Poisson experiments (section 6).
type Profile struct {
	Name        string
	Description string
	// MinService, MaxService, MeanService calibrate the Bounded Pareto
	// service-time distribution (seconds).
	MinService  float64
	MaxService  float64
	MeanService float64
	// Jobs is the nominal trace length (the paper's year-long logs hold
	// tens of thousands of jobs).
	Jobs int
	// GapSCV is the squared coefficient of variation of raw interarrival
	// gaps; > 1 makes the replayed arrival process bursty.
	GapSCV float64
	// BurstSizeBand, when positive, correlates job sizes within arrival
	// bursts: all jobs of one burst draw from a quantile band of this
	// width ("many jobs with similar runtimes arrive simultaneously",
	// section 6). Zero keeps sizes i.i.d., which is what the paper's
	// Poisson-arrival sections assume; the Figure 7 driver turns this on.
	BurstSizeBand float64
}

// C90 models the PSC Cray C90 log (the paper's primary workload).
func C90() Profile {
	return Profile{
		Name:        "psc-c90",
		Description: "PSC Cray C90 batch jobs, Jan-Dec 1997 (calibrated reconstruction)",
		MinService:  60,
		MaxService:  2.2e6,
		MeanService: 4500,
		Jobs:        55000,
		GapSCV:      18,
	}
}

// J90 models the PSC Cray J90 log (appendix B); slightly smaller jobs and
// machine, same qualitative shape.
func J90() Profile {
	return Profile{
		Name:        "psc-j90",
		Description: "PSC Cray J90 batch jobs, Jan-Dec 1997 (calibrated reconstruction)",
		MinService:  30,
		MaxService:  1.2e6,
		MeanService: 3000,
		Jobs:        35000,
		GapSCV:      18,
	}
}

// CTC models the Cornell Theory Center IBM SP2 log (appendix C): users are
// told jobs are killed after 12 hours, so the tail is truncated at 43200 s
// and the variance is far lower.
func CTC() Profile {
	return Profile{
		Name:        "ctc-sp2",
		Description: "CTC IBM SP2 8-processor batch jobs, Jul 1996 - May 1997 (calibrated reconstruction)",
		MinService:  30,
		MaxService:  43200,
		MeanService: 4000,
		Jobs:        60000,
		GapSCV:      12,
	}
}

// Profiles returns all built-in profiles keyed by name.
func Profiles() map[string]Profile {
	out := map[string]Profile{}
	for _, p := range []Profile{C90(), J90(), CTC()} {
		out[p.Name] = p
	}
	return out
}

// ByName looks up a built-in profile.
func ByName(name string) (Profile, error) {
	p, ok := Profiles()[name]
	if !ok {
		return Profile{}, fmt.Errorf("trace: unknown profile %q (have c90=%q, j90=%q, ctc=%q)",
			name, C90().Name, J90().Name, CTC().Name)
	}
	return p, nil
}

// sizeFitKey is what a size fit depends on: the profile's calibration
// targets.
type sizeFitKey struct{ mean, min, max float64 }

// sizeFits memoizes SizeDist process-wide. Every Generate fits its
// profile, and sita.WorkloadFromProfile fits it again; a fit is 200
// bisection steps, with the same answer for every trace of a profile.
// Errors are not stored, so an infeasible profile fits (and fails) on
// every call. The bound keeps a caller passing arbitrary profiles from
// growing it without limit.
var sizeFits = memo.New[sizeFitKey, dist.BoundedPareto](sizeFitCap, nil)

// sizeFitCap bounds sizeFits; the built-in profiles and a sweep's
// variants of them take a handful of entries.
const sizeFitCap = 64

// SizeDist returns the Bounded Pareto service-time distribution calibrated
// to the profile's min, max and mean, fitted once per process for each
// set of targets. A NaN target would make a key that never equals itself,
// so it fits directly.
func (p Profile) SizeDist() (dist.BoundedPareto, error) {
	key := sizeFitKey{p.MeanService, p.MinService, p.MaxService}
	fit := func() (dist.BoundedPareto, error) {
		return dist.FitBoundedParetoMean(p.MeanService, p.MinService, p.MaxService)
	}
	if key != key {
		return fit()
	}
	d, _, err := sizeFits.Do(key, fit)
	return d, err
}

// MustSizeDist is SizeDist for the built-in profiles, which are known to be
// feasible.
func (p Profile) MustSizeDist() dist.BoundedPareto {
	d, err := p.SizeDist()
	if err != nil {
		panic(fmt.Sprintf("trace: profile %q: %v", p.Name, err))
	}
	return d
}
