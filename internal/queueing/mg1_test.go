package queueing

import (
	"math"
	"testing"

	"sita/internal/dist"
	"sita/internal/floatcmp"
)

func TestMG1MatchesMM1ClosedForm(t *testing.T) {
	// M/M/1: E[W] = rho/(1-rho) * E[X].
	size := dist.NewExponential(2) // mean 2
	q := NewMG1(0.25, size)        // rho = 0.5
	if !floatcmp.AlmostEqual(q.Load(), 0.5, 1e-12) {
		t.Fatalf("load = %v, want 0.5", q.Load())
	}
	wantW := 0.5 / 0.5 * 2.0 // = 2
	if !floatcmp.AlmostEqual(q.MeanWait(), wantW, 1e-12) {
		t.Fatalf("E[W] = %v, want %v", q.MeanWait(), wantW)
	}
	if !floatcmp.AlmostEqual(q.MeanResponse(), 4, 1e-12) {
		t.Fatalf("E[T] = %v, want 4", q.MeanResponse())
	}
}

func TestMG1DeterministicVsExponential(t *testing.T) {
	// M/D/1 waits are exactly half of M/M/1 at equal load (PK with
	// E[X^2] = E[X]^2 vs 2E[X]^2).
	lambda := 0.4
	md1 := NewMG1(lambda, dist.Deterministic{Value: 1})
	mm1 := NewMG1(lambda, dist.NewExponential(1))
	if !floatcmp.AlmostEqual(md1.MeanWait()*2, mm1.MeanWait(), 1e-12) {
		t.Fatalf("M/D/1 %v should be half of M/M/1 %v", md1.MeanWait(), mm1.MeanWait())
	}
}

func TestMG1UnstableReturnsInf(t *testing.T) {
	q := NewMG1(1.0, dist.NewExponential(2)) // rho = 2
	if q.Stable() {
		t.Fatal("rho=2 should be unstable")
	}
	for name, v := range map[string]float64{
		"MeanWait":            q.MeanWait(),
		"WaitSecondMoment":    q.WaitSecondMoment(),
		"MeanSlowdown":        q.MeanSlowdown(),
		"SlowdownVariance":    q.SlowdownVariance(),
		"ResponseVariance":    q.ResponseVariance(),
		"SlowdownSecondMomnt": q.SlowdownSecondMoment(),
	} {
		if !math.IsInf(v, 1) {
			t.Errorf("%s = %v, want +Inf", name, v)
		}
	}
}

func TestMG1SlowdownBoundedParetoFinite(t *testing.T) {
	size := dist.NewBoundedPareto(1.1, 1, 1e6)
	q := NewMG1(0.5/size.Moment(1), size) // rho = 0.5
	s := q.MeanSlowdown()
	if s <= 1 || math.IsInf(s, 1) {
		t.Fatalf("mean slowdown = %v, want finite > 1", s)
	}
	v := q.SlowdownVariance()
	if v <= 0 || math.IsInf(v, 1) {
		t.Fatalf("slowdown variance = %v, want finite > 0", v)
	}
}

func TestMG1WaitGrowsWithVariability(t *testing.T) {
	// Same mean, increasing C^2 -> increasing E[W] (the PK story).
	lambda := 0.08
	mean := 10.0
	prev := -1.0
	for _, scv := range []float64{1, 4, 16, 64} {
		h := dist.NewH2Balanced(mean, scv)
		w := NewMG1(lambda, h).MeanWait()
		if w <= prev {
			t.Fatalf("E[W] not increasing in C^2: %v after %v", w, prev)
		}
		prev = w
	}
}

func TestMG1WaitExplodesNearSaturation(t *testing.T) {
	size := dist.NewExponential(1)
	w9 := NewMG1(0.9, size).MeanWait()
	w99 := NewMG1(0.99, size).MeanWait()
	if w99 < 5*w9 {
		t.Fatalf("wait at rho=0.99 (%v) should dwarf rho=0.9 (%v)", w99, w9)
	}
}

func TestMG1Validation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMG1(0, dist.NewExponential(1))
}

func TestErlangCKnownValues(t *testing.T) {
	// h=1: C(1, a) = a (probability of waiting in M/M/1 is rho).
	if got := ErlangC(1, 0.7); !floatcmp.AlmostEqual(got, 0.7, 1e-12) {
		t.Fatalf("ErlangC(1, 0.7) = %v, want 0.7", got)
	}
	// h=2, a=1 (rho=0.5): C = (1/2)/( (1+1) * (1/2) + 1/2 ) ... standard
	// value 1/3.
	if got := ErlangC(2, 1); !floatcmp.AlmostEqual(got, 1.0/3, 1e-12) {
		t.Fatalf("ErlangC(2, 1) = %v, want 1/3", got)
	}
	if got := ErlangC(4, 0); got != 0 {
		t.Fatalf("ErlangC with no load = %v, want 0", got)
	}
	if got := ErlangC(2, 3); got != 1 {
		t.Fatalf("unstable ErlangC = %v, want 1", got)
	}
}

func TestErlangCDecreasesWithServers(t *testing.T) {
	// At fixed per-server load, more servers -> smaller waiting probability
	// (economies of scale).
	prev := 2.0
	for _, h := range []int{1, 2, 4, 8, 16, 64} {
		c := ErlangC(h, 0.8*float64(h))
		if c >= prev {
			t.Fatalf("ErlangC(%d) = %v, not decreasing (prev %v)", h, c, prev)
		}
		prev = c
	}
}

// TestErlangCLargeHosts checks that ErlangC stays a probability at any
// host count: a^h/h! overflows float64 from a few hundred hosts at high
// load, where the Erlang-B recurrence takes over.
func TestErlangCLargeHosts(t *testing.T) {
	for _, h := range []int{1, 2, 10, 100, 170, 171, 500, 1024, 4096, 10000, 100000} {
		for _, rho := range []float64{1e-3, 0.1, 0.5, 0.9, 0.99, 0.999} {
			if c := ErlangC(h, rho*float64(h)); !(c >= 0 && c <= 1) {
				t.Errorf("ErlangC(%d, %v) = %v, want a probability", h, rho*float64(h), c)
			}
		}
	}
}

// TestErlangCFormulasAgree checks the Erlang-B route against the term
// sums wherever the sums stay finite.
func TestErlangCFormulasAgree(t *testing.T) {
	compared := 0
	for _, h := range []int{1, 2, 3, 8, 32, 100, 200, 500, 1000} {
		for _, rho := range []float64{1e-3, 0.1, 0.5, 0.7, 0.9, 0.99} {
			a := rho * float64(h)
			top, sum := erlangCTerms(h, a, rho)
			if math.IsInf(sum+top, 0) {
				continue
			}
			compared++
			sums, fromB := top/(sum+top), erlangCFromB(h, a, rho)
			if !floatcmp.AlmostEqual(sums, fromB, 1e-12) {
				t.Errorf("h=%d rho=%v: term sums give %v, Erlang B gives %v", h, rho, sums, fromB)
			}
		}
	}
	if compared < 30 {
		t.Fatalf("only %d cases had finite term sums", compared)
	}
}

func TestMMhReducesToMM1(t *testing.T) {
	mm1 := NewMG1(0.5, dist.NewExponential(1))
	mmh := NewMMh(0.5, 1, 1)
	if !floatcmp.AlmostEqual(mm1.MeanWait(), mmh.MeanWait(), 1e-12) {
		t.Fatalf("M/M/1 via MMh %v vs MG1 %v", mmh.MeanWait(), mm1.MeanWait())
	}
}

func TestMGhReducesToPKForOneServer(t *testing.T) {
	// For h=1 the Lee-Longton scaling (1+C^2)/2 times the M/M/1 wait equals
	// the exact PK wait.
	size := dist.NewBoundedPareto(1.5, 1, 1e4)
	lambda := 0.5 / size.Moment(1)
	exact := NewMG1(lambda, size).MeanWait()
	approx := NewMGh(lambda, size, 1).MeanWait()
	if !floatcmp.AlmostEqual(exact, approx, 1e-9) {
		t.Fatalf("MGh(h=1) = %v, PK = %v", approx, exact)
	}
}

func TestMGhUnstable(t *testing.T) {
	size := dist.NewExponential(1)
	q := NewMGh(3, size, 2)
	if !math.IsInf(q.MeanWait(), 1) || !math.IsInf(q.MeanSlowdown(), 1) {
		t.Fatal("unstable MGh should report Inf")
	}
}

func TestGG1ReducesToPKForPoisson(t *testing.T) {
	// Kingman with Ca^2 = 1 equals PK exactly for M/G/1:
	// rho/(1-rho)*E[X]*(1+Cs^2)/2 = lambda E[X^2] / (2(1-rho)).
	size := dist.NewBoundedPareto(1.3, 1, 1e5)
	lambda := 0.6 / size.Moment(1)
	pk := NewMG1(lambda, size).MeanWait()
	kg := NewGG1(lambda, 1, size).MeanWait()
	if !floatcmp.AlmostEqual(pk, kg, 1e-9) {
		t.Fatalf("Kingman(Ca2=1) = %v, PK = %v", kg, pk)
	}
}

func TestGG1BurstierIsWorse(t *testing.T) {
	size := dist.NewExponential(1)
	w1 := NewGG1(0.7, 1, size).MeanWait()
	w25 := NewGG1(0.7, 25, size).MeanWait()
	if w25 <= w1 {
		t.Fatalf("bursty wait %v should exceed poisson wait %v", w25, w1)
	}
}

func TestRoundRobinBetweenRandomAndLWL(t *testing.T) {
	// Round-Robin (Ca^2 = 1/h) mildly improves on Random (Ca^2 = 1) but
	// keeps full size variability.
	size := dist.NewBoundedPareto(1.5, 1, 1e4)
	h := 2
	lambda := 0.7 * float64(h) / size.Moment(1)
	random := RandomSplit(lambda, size, h).MeanSlowdown()
	rr := RoundRobinSplit(lambda, size, h).MeanSlowdown()
	if rr >= random {
		t.Fatalf("round robin %v should beat random %v", rr, random)
	}
	if random/rr > 3 {
		t.Fatalf("round robin %v should be close to random %v (same variability)", rr, random)
	}
}
