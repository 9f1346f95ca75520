package catalog

import (
	"math"
	"strings"
	"testing"

	"sita/internal/core"
)

// FuzzCanonicalPolicy hammers policy-name resolution with arbitrary
// strings: it must never panic, resolution must be idempotent (the
// canonical spelling of a canonical name is itself), every accepted
// name must resolve into the published PolicyNames list, and acceptance
// must agree with CheckPolicy and be case-insensitive.
func FuzzCanonicalPolicy(f *testing.F) {
	for _, r := range core.Policies() {
		f.Add(r.Key)
		f.Add(r.Name)
		for _, alias := range r.Aliases {
			f.Add(alias)
			f.Add(strings.ToUpper(alias))
		}
	}
	f.Add("")
	f.Add("sita-")
	f.Add("random ")
	f.Add("cq\x00")
	f.Fuzz(func(t *testing.T, name string) {
		c, err := CanonicalPolicy(name)
		if (err == nil) != (CheckPolicy(name) == nil) {
			t.Fatalf("CanonicalPolicy and CheckPolicy disagree on %q: %v vs %v", name, err, CheckPolicy(name))
		}
		if err != nil {
			if c != "" {
				t.Fatalf("rejected %q but returned canonical %q", name, c)
			}
			return
		}
		published := false
		for _, p := range PolicyNames() {
			if c == p {
				published = true
				break
			}
		}
		if !published {
			t.Fatalf("accepted %q resolves to %q, which PolicyNames does not list", name, c)
		}
		again, err := CanonicalPolicy(c)
		if err != nil || again != c {
			t.Fatalf("canonicalization not idempotent: %q -> %q -> (%q, %v)", name, c, again, err)
		}
		upper, err := CanonicalPolicy(strings.ToUpper(name))
		if err != nil || upper != c {
			t.Fatalf("case-folding broken: %q accepted but %q -> (%q, %v)", name, strings.ToUpper(name), upper, err)
		}
	})
}

// FuzzParameterChecks throws arbitrary values at the shared parameter
// validators: they must never panic and must enforce their documented
// contracts exactly — including on NaN, infinities, and negative zero,
// which arrive at these checks straight from JSON and flag parsing.
func FuzzParameterChecks(f *testing.F) {
	f.Add(0.5, 0.2, 4, 8, 1000)
	f.Add(0.0, 1.0, 0, 0, 0)
	f.Add(math.Inf(1), math.Inf(-1), -1, -1, -1)
	f.Add(math.NaN(), math.NaN(), math.MaxInt, math.MinInt, math.MinInt)
	f.Add(math.Copysign(0, -1), -0.0, 1, 1, 1)
	f.Fuzz(func(t *testing.T, load, warmup float64, hosts, workers, jobs int) {
		if err := CheckLoad(load); (err == nil) != (load > 0 && load < 1) {
			t.Fatalf("CheckLoad(%v) = %v", load, err)
		}
		// The contract is [0, 1); NaN must be rejected, which the direct
		// comparison form encodes (NaN fails both bounds checks only if
		// written as below).
		wantWarmupOK := warmup >= 0 && warmup < 1
		if err := CheckWarmup(warmup); (err == nil) != wantWarmupOK {
			t.Fatalf("CheckWarmup(%v) = %v, want ok=%v", warmup, err, wantWarmupOK)
		}
		if err := CheckHosts(hosts); (err == nil) != (hosts >= 1 && hosts <= MaxHosts) {
			t.Fatalf("CheckHosts(%d) = %v", hosts, err)
		}
		if err := CheckAdviceHosts(hosts); (err == nil) != (hosts >= 2 && hosts <= MaxHosts) {
			t.Fatalf("CheckAdviceHosts(%d) = %v", hosts, err)
		}
		if err := CheckWorkers(workers); (err == nil) != (workers >= 1) {
			t.Fatalf("CheckWorkers(%d) = %v", workers, err)
		}
		if err := CheckJobs(jobs); (err == nil) != (jobs >= 0) {
			t.Fatalf("CheckJobs(%d) = %v", jobs, err)
		}
	})
}
