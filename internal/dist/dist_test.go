package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sita/internal/floatcmp"
)

// checkSampleMoments verifies that sample statistics agree with the
// distribution's claimed first two moments. For heavy-tailed distributions
// the sample estimator of E[X^2] itself has enormous (or infinite) variance,
// so use checkSampleMean there instead.
func checkSampleMoments(t *testing.T, d Distribution, n int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 43))
	var sum, sum2 float64
	lo, hi := d.Support()
	for i := 0; i < n; i++ {
		x := d.Sample(rng)
		if x < lo-1e-9 || x > hi+1e-9 {
			t.Fatalf("sample %v outside support [%v, %v]", x, lo, hi)
		}
		sum += x
		sum2 += x * x
	}
	m1, m2 := sum/float64(n), sum2/float64(n)
	if want := d.Moment(1); !floatcmp.AlmostEqual(m1, want, tol) {
		t.Errorf("sample mean %v vs analytic %v", m1, want)
	}
	if want := d.Moment(2); !math.IsInf(want, 1) && !floatcmp.AlmostEqual(m2, want, tol*3) {
		t.Errorf("sample E[X^2] %v vs analytic %v", m2, want)
	}
}

// checkSampleMean is the heavy-tail variant: mean plus empirical-vs-analytic
// CDF agreement at several quantiles (a distribution-shape check that does
// not suffer from tail-estimator variance).
func checkSampleMean(t *testing.T, d Distribution, n int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 43))
	sum := 0.0
	xs := make([]float64, n)
	lo, hi := d.Support()
	for i := 0; i < n; i++ {
		x := d.Sample(rng)
		if x < lo-1e-9 || x > hi+1e-9 {
			t.Fatalf("sample %v outside support [%v, %v]", x, lo, hi)
		}
		sum += x
		xs[i] = x
	}
	if m1, want := sum/float64(n), d.Moment(1); !floatcmp.AlmostEqual(m1, want, tol) {
		t.Errorf("sample mean %v vs analytic %v", m1, want)
	}
	emp := NewEmpirical(xs)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		x := emp.Quantile(p)
		if got := d.CDF(x); math.Abs(got-p) > 0.01 {
			t.Errorf("CDF at empirical q%v: %v, want ~%v", p, got, p)
		}
	}
}

// checkCDFQuantileInverse verifies Quantile(CDF(x)) == x on the support.
func checkCDFQuantileInverse(t *testing.T, d Distribution, pts []float64) {
	t.Helper()
	q, ok := d.(Quantiler)
	if !ok {
		t.Fatalf("%T is not a Quantiler", d)
	}
	for _, p := range pts {
		x := q.Quantile(p)
		if got := d.CDF(x); !floatcmp.AlmostEqual(got, p, 1e-6) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestExponentialMoments(t *testing.T) {
	e := NewExponential(5)
	if !floatcmp.AlmostEqual(e.Moment(1), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", e.Moment(1))
	}
	if !floatcmp.AlmostEqual(e.Moment(2), 50, 1e-12) {
		t.Errorf("E[X^2] = %v, want 50", e.Moment(2))
	}
	if !floatcmp.AlmostEqual(e.Moment(3), 750, 1e-12) {
		t.Errorf("E[X^3] = %v, want 750", e.Moment(3))
	}
	if !math.IsInf(e.Moment(-1), 1) {
		t.Errorf("E[1/X] should diverge, got %v", e.Moment(-1))
	}
	if !floatcmp.AlmostEqual(SquaredCV(e), 1, 1e-12) {
		t.Errorf("exponential C^2 = %v, want 1", SquaredCV(e))
	}
}

func TestExponentialSampling(t *testing.T) {
	checkSampleMoments(t, NewExponential(3), 200000, 0.02)
	checkCDFQuantileInverse(t, NewExponential(3), []float64{0.01, 0.5, 0.99})
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 7}
	if d.Sample(nil) != 7 {
		t.Error("deterministic sample != value")
	}
	if d.Moment(2) != 49 || d.Moment(-1) != 1.0/7 {
		t.Error("deterministic moments wrong")
	}
	if d.CDF(6.9) != 0 || d.CDF(7) != 1 {
		t.Error("deterministic CDF wrong")
	}
	if got := d.PartialMoment(1, 0, 10); got != 7 {
		t.Errorf("partial moment covering point = %v, want 7", got)
	}
	if got := d.PartialMoment(1, 8, 10); got != 0 {
		t.Errorf("partial moment missing point = %v, want 0", got)
	}
	if SquaredCV(d) != 0 {
		t.Error("deterministic C^2 should be 0")
	}
}

func TestUniformMoments(t *testing.T) {
	u := NewUniform(2, 6)
	if !floatcmp.AlmostEqual(u.Moment(1), 4, 1e-12) {
		t.Errorf("mean = %v, want 4", u.Moment(1))
	}
	// E[X^2] = (6^3-2^3)/(3*4) = 208/12
	if !floatcmp.AlmostEqual(u.Moment(2), 208.0/12, 1e-12) {
		t.Errorf("E[X^2] = %v", u.Moment(2))
	}
	// E[1/X] = ln(3)/4
	if !floatcmp.AlmostEqual(u.Moment(-1), math.Log(3)/4, 1e-12) {
		t.Errorf("E[1/X] = %v, want %v", u.Moment(-1), math.Log(3)/4)
	}
	checkSampleMoments(t, u, 100000, 0.02)
	checkCDFQuantileInverse(t, u, []float64{0.1, 0.5, 0.9})
}

func TestLognormalMoments(t *testing.T) {
	l := NewLognormalFromMeanSCV(10, 4)
	if !floatcmp.AlmostEqual(l.Moment(1), 10, 1e-9) {
		t.Errorf("mean = %v, want 10", l.Moment(1))
	}
	if !floatcmp.AlmostEqual(SquaredCV(l), 4, 1e-9) {
		t.Errorf("C^2 = %v, want 4", SquaredCV(l))
	}
	checkSampleMean(t, l, 500000, 0.05)
}

// simpsonLog integrates f over [a, b], 0 < a < b, by composite Simpson's
// rule with n panels (n even) in u = ln x, where dx = x du. Power-law
// integrands are smooth in u, so a fixed grid converges fast even over
// many decades.
func simpsonLog(f func(float64) float64, a, b float64, n int) float64 {
	la, lb := math.Log(a), math.Log(b)
	h := (lb - la) / float64(n)
	g := func(u float64) float64 { x := math.Exp(u); return f(x) * x }
	sum := g(la) + g(lb)
	for i := 1; i < n; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		sum += w * g(la+h*float64(i))
	}
	return sum * h / 3
}

func TestBoundedParetoMomentsAgainstNumeric(t *testing.T) {
	b := NewBoundedPareto(1.1, 1, 1e6)
	for _, j := range []float64{-2, -1, 1, 2, 3} {
		closed := b.Moment(j)
		numeric := simpsonLog(func(x float64) float64 {
			// density: alpha k^alpha x^{-alpha-1} / norm
			return math.Pow(x, j) * b.Alpha * math.Pow(b.K, b.Alpha) *
				math.Pow(x, -b.Alpha-1) / b.norm
		}, b.K, b.P, 4096)
		if !floatcmp.AlmostEqual(closed, numeric, 1e-4) {
			t.Errorf("j=%v closed %v vs numeric %v", j, closed, numeric)
		}
	}
}

func TestBoundedParetoLogCase(t *testing.T) {
	// j == alpha exercises the logarithmic branch.
	b := NewBoundedPareto(2, 1, 100)
	got := b.Moment(2)
	want := b.PartialMoment(2, 1, 100)
	if !floatcmp.AlmostEqual(got, want, 1e-12) {
		t.Errorf("log-case moment inconsistent: %v vs %v", got, want)
	}
	// Compare against numeric integration.
	numeric := integrate(func(x float64) float64 {
		return x * x * 2 * math.Pow(x, -3) / b.norm
	}, 1, 100, 1e-12)
	if !floatcmp.AlmostEqual(got, numeric, 1e-6) {
		t.Errorf("j=alpha moment %v vs numeric %v", got, numeric)
	}
}

func TestBoundedParetoSampling(t *testing.T) {
	b := NewBoundedPareto(1.5, 10, 1e5)
	checkSampleMean(t, b, 500000, 0.05)
	checkCDFQuantileInverse(t, b, []float64{0.01, 0.5, 0.987, 0.999})
}

func TestBoundedParetoPartialMomentsAddUp(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		b := NewBoundedPareto(0.5+rng.Float64()*2, 1, 1e4)
		cut := b.Quantile(0.1 + 0.8*rng.Float64())
		for _, j := range []float64{-1, 1, 2} {
			whole := b.Moment(j)
			split := b.PartialMoment(j, b.K, cut) + b.PartialMoment(j, cut, b.P)
			if !floatcmp.AlmostEqual(whole, split, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBoundedParetoLoadCutoff(t *testing.T) {
	b := NewBoundedPareto(1.1, 1, 1e7)
	c := b.LoadCutoff(0.5)
	left := b.PartialMoment(1, b.K, c)
	if !floatcmp.AlmostEqual(left, 0.5*b.Moment(1), 1e-6) {
		t.Errorf("load cutoff %v leaves %v of mean %v below", c, left, b.Moment(1))
	}
	if got := b.LoadCutoff(0); got != b.K {
		t.Errorf("zero-load cutoff = %v, want K", got)
	}
	if got := b.LoadCutoff(1); got != b.P {
		t.Errorf("full-load cutoff = %v, want P", got)
	}
}

func TestBoundedParetoHeavyTailProperty(t *testing.T) {
	// With alpha near 1 and a huge range, a small fraction of jobs must
	// carry half the load (the paper's 1.3% observation).
	b := NewBoundedPareto(1.1, 1, 3e6)
	c := b.LoadCutoff(0.5)
	fracAbove := 1 - b.CDF(c)
	if fracAbove > 0.10 {
		t.Errorf("fraction of jobs above half-load cutoff = %v, want small (heavy tail)", fracAbove)
	}
}

func TestHyperexponential(t *testing.T) {
	h := NewH2Balanced(10, 5)
	if !floatcmp.AlmostEqual(h.Moment(1), 10, 1e-9) {
		t.Errorf("H2 mean = %v, want 10", h.Moment(1))
	}
	if !floatcmp.AlmostEqual(SquaredCV(h), 5, 1e-9) {
		t.Errorf("H2 C^2 = %v, want 5", SquaredCV(h))
	}
	checkSampleMean(t, h, 500000, 0.05)
	checkCDFQuantileInverse(t, h, []float64{0.1, 0.5, 0.95})
}

func TestHyperexponentialDegenerate(t *testing.T) {
	h := NewH2Balanced(4, 1) // scv == 1 collapses to exponential
	if len(h.Rates) != 1 {
		t.Fatalf("scv=1 should give a single phase, got %d", len(h.Rates))
	}
	if !floatcmp.AlmostEqual(h.Moment(1), 4, 1e-12) {
		t.Errorf("mean = %v, want 4", h.Moment(1))
	}
}

func TestHyperexponentialNormalizes(t *testing.T) {
	h := NewHyperexponential([]float64{2, 2}, []float64{1, 3})
	if !floatcmp.AlmostEqual(h.Probs[0], 0.5, 1e-12) {
		t.Errorf("probs not normalized: %v", h.Probs)
	}
}

func TestEmpirical(t *testing.T) {
	e := NewEmpirical([]float64{3, 1, 2, 2})
	if e.Len() != 4 {
		t.Fatalf("len = %d", e.Len())
	}
	if got := e.Moment(1); got != 2 {
		t.Errorf("mean = %v, want 2", got)
	}
	if got := e.CDF(2); got != 0.75 {
		t.Errorf("CDF(2) = %v, want 0.75", got)
	}
	if got := e.CDF(0.5); got != 0 {
		t.Errorf("CDF(0.5) = %v, want 0", got)
	}
	if got := e.Quantile(0.5); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := e.PartialMoment(1, 1, 2); got != 1.0 { // values 2,2 -> (2+2)/4
		t.Errorf("partial moment = %v, want 1", got)
	}
	lo, hi := e.Support()
	if lo != 1 || hi != 3 {
		t.Errorf("support = [%v, %v], want [1, 3]", lo, hi)
	}
}

func TestTruncated(t *testing.T) {
	b := NewBoundedPareto(1.2, 1, 1e6)
	cut := b.LoadCutoff(0.5)
	short := NewTruncated(b, 0, cut)
	long := NewTruncated(b, cut, math.Inf(1))
	if !floatcmp.AlmostEqual(short.mass+long.mass, 1, 1e-9) {
		t.Errorf("masses %v + %v != 1", short.mass, long.mass)
	}
	// Law of total expectation.
	total := short.mass*short.Moment(1) + long.mass*long.Moment(1)
	if !floatcmp.AlmostEqual(total, b.Moment(1), 1e-9) {
		t.Errorf("conditional means don't reassemble: %v vs %v", total, b.Moment(1))
	}
	// Samples stay inside the interval.
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 10000; i++ {
		x := short.Sample(rng)
		if x <= 0 || x > cut+1e-9 {
			t.Fatalf("short sample %v outside (0, %v]", x, cut)
		}
	}
	if got := short.CDF(cut); got != 1 {
		t.Errorf("CDF at upper bound = %v, want 1", got)
	}
	if got := long.CDF(cut); got != 0 {
		t.Errorf("long CDF at lower bound = %v, want 0", got)
	}
	checkCDFQuantileInverse(t, short, []float64{0.1, 0.5, 0.9})
}

func TestTruncatedZeroMassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero-mass truncation")
		}
	}()
	NewTruncated(NewBoundedPareto(1.5, 1, 100), 200, 300)
}

func TestGenericPartialMomentFallback(t *testing.T) {
	// Exponential has no closed-form PartialMoment method; exercise the
	// numeric quantile-integration fallback against the closed form
	// E[X ; a < X <= b] = (a+m)e^{-a/m} - (b+m)e^{-b/m} for mean m.
	const m = 5.0
	a, b := 2.0, 20.0
	got := PartialMoment(NewExponential(m), 1, a, b)
	want := (a+m)*math.Exp(-a/m) - (b+m)*math.Exp(-b/m)
	if !floatcmp.AlmostEqual(got, want, 1e-6) {
		t.Errorf("numeric partial moment %v vs closed form %v", got, want)
	}
}

func TestProb(t *testing.T) {
	e := NewExponential(1)
	if got := Prob(e, 5, 2); got != 0 {
		t.Errorf("reversed interval prob = %v, want 0", got)
	}
	want := math.Exp(-1) - math.Exp(-2)
	if got := Prob(e, 1, 2); !floatcmp.AlmostEqual(got, want, 1e-12) {
		t.Errorf("Prob(1,2) = %v, want %v", got, want)
	}
}

func TestValidationPanics(t *testing.T) {
	cases := []func(){
		func() { NewExponential(0) },
		func() { NewUniform(5, 5) },
		func() { NewBoundedPareto(1, 5, 5) },
		func() { NewHyperexponential(nil, nil) },
		func() { NewHyperexponential([]float64{1}, []float64{0}) },
		func() { NewEmpirical(nil) },
		func() { NewLognormalFromMeanSCV(0, 1) },
		func() { NewH2Balanced(1, 0.5) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
