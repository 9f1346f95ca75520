package trace

import (
	"math"
	"strings"
	"testing"

	"sita/internal/workload"
)

// swfAllAtZero is a log with valid sizes whose jobs are all submitted at
// t = 0: 30 jobs of runtime 1 and one of runtime 1000. Its arrival gaps
// are all zero, so bursty re-timing has nothing to rescale.
var swfAllAtZero = strings.Repeat("1 0 -1 1 8\n", 30) + "31 0 -1 1000 8\n"

// FuzzReadSWF hammers the SWF parser with arbitrary input: it must never
// panic, any trace it accepts must validate, and every accepted trace must
// re-time to a load in both arrival modes — all jobs, finite and
// non-decreasing arrivals — since that is what every consumer does next.
func FuzzReadSWF(f *testing.F) {
	f.Add("; comment\n1 100.0 -1 50.0 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("")
	f.Add("1 2 3 4\n")
	f.Add("1 1e308 -1 1e308 8\n")
	f.Add("1 -5 -1 10 8\n\n2 nan -1 inf 8\n")
	f.Add(strings.Repeat("; only comments\n", 10))
	f.Add(swfAllAtZero)
	f.Add("1 0.5 -1 1e-6 8\n2 1 -1 1e-6 8\n3 1e12 -1 1e12 8\n") // range extremes
	f.Add(strings.Repeat("1 2 -1 1e308 8\n", 4))                // Poisson arrivals overflow without swfMaxSeconds
	f.Add("1 2 -1 7e-324 8\n")                                  // the gap scale underflows without swfMinRuntime
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadSWF("fuzz", strings.NewReader(input))
		if err != nil {
			return // rejections are fine; panics are not
		}
		if tr.Len() == 0 {
			t.Fatal("accepted trace with zero jobs")
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted invalid trace: %v", err)
		}
		for _, poisson := range []bool{true, false} {
			jobs := tr.JobsAtLoad(0.7, 2, poisson, 1)
			if len(jobs) != tr.Len() {
				t.Fatalf("poisson=%v: JobsAtLoad returned %d jobs, want %d", poisson, len(jobs), tr.Len())
			}
			prev := 0.0
			for i, j := range jobs {
				if math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) || j.Arrival < prev {
					t.Fatalf("poisson=%v: job %d arrives at %v after %v", poisson, i, j.Arrival, prev)
				}
				prev = j.Arrival
			}
		}
	})
}

// applyOp decodes one fuzz byte into a pure derivation and applies it.
// The decoding only ever produces legal arguments (Thin panics on k < 1,
// for instance); the point is to explore arbitrary derivation chains,
// not argument validation.
func applyOp(t *Trace, b byte) *Trace {
	arg := int(b >> 3)
	switch b % 6 {
	case 0:
		return t.Head(arg * 7 % (t.Len() + 1))
	case 1:
		lo := float64(arg)
		return t.FilterSize(lo, lo+500)
	case 2:
		return t.Thin(1 + arg%4)
	case 3:
		first, _ := t.SplitHalf()
		return first
	case 4:
		_, second := t.SplitHalf()
		return second
	default:
		return t.Truncate(arg * 11 % (t.Len() + 2))
	}
}

// FuzzIdentityDerivation drives arbitrary derivation-op chains against
// the trace cache-identity contract: Generate is a pure function of
// (profile, seed) and every derivation is a pure function of its
// parent, so replaying the same chain from the same recipe must
// reproduce both the identity and the exact job content — the property
// internal/streamcache keys on. Literals without identity must stay
// identity-less through any chain.
func FuzzIdentityDerivation(f *testing.F) {
	f.Add(uint64(1), false, []byte{0})
	f.Add(uint64(7), true, []byte{1, 2, 3, 4, 5})
	f.Add(uint64(42), false, []byte{255, 0, 17, 129, 64, 33})
	f.Add(uint64(0), true, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, bursty bool, ops []byte) {
		if len(ops) > 12 {
			ops = ops[:12] // bound chain length, not coverage
		}
		p := C90()
		p.Jobs = 200
		if !bursty {
			p.GapSCV = 1 // exercise the plain-Poisson generation path too
		}
		a, err := Generate(p, seed)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		b, err := Generate(p, seed)
		if err != nil {
			t.Fatalf("Generate (replay): %v", err)
		}
		// A literal with the same jobs but no construction recipe rides
		// along: its identity must remain zero through the whole chain.
		lit := &Trace{Name: "literal", Jobs: a.Jobs}
		for _, op := range ops {
			parentID, _ := a.Identity()
			a, b, lit = applyOp(a, op), applyOp(b, op), applyOp(lit, op)

			ida, oka := a.Identity()
			idb, okb := b.Identity()
			if !oka || !okb || ida != idb {
				t.Fatalf("op %d: replayed chain diverged: %+v (ok=%v) vs %+v (ok=%v)", op, ida, oka, idb, okb)
			}
			if ida.Profile != parentID.Profile || ida.Seed != parentID.Seed || ida.Anon != parentID.Anon {
				t.Fatalf("op %d: derivation rewrote the recipe: parent %+v, child %+v", op, parentID, ida)
			}
			if !strings.HasPrefix(ida.Ops, parentID.Ops) {
				t.Fatalf("op %d: child ops %q does not extend parent ops %q", op, ida.Ops, parentID.Ops)
			}
			if litID, ok := lit.Identity(); ok || !litID.IsZero() {
				t.Fatalf("op %d: literal trace acquired identity %+v", op, litID)
			}
			if a.Len() != b.Len() {
				t.Fatalf("op %d: equal identity, different lengths %d vs %d", op, a.Len(), b.Len())
			}
			for i := range a.Jobs {
				if a.Jobs[i] != b.Jobs[i] {
					t.Fatalf("op %d: equal identity %+v but job %d differs: %+v vs %+v", op, ida, i, a.Jobs[i], b.Jobs[i])
				}
			}
			//lint:allow floateq the precomputed mean must be bit-identical to a fresh streaming pass
			if a.SizeMean() != recomputeMean(a.Jobs) {
				t.Fatalf("op %d: precomputed size mean %v != fresh pass %v", op, a.SizeMean(), recomputeMean(a.Jobs))
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("op %d: derived trace invalid: %v", op, err)
			}
		}
	})
}

// recomputeMean streams the mean size exactly as computeSizeMean does.
func recomputeMean(jobs []workload.Job) float64 {
	tmp := Trace{Jobs: jobs}
	return tmp.computeSizeMean()
}
