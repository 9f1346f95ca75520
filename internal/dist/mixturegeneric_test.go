package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"sita/internal/floatcmp"
)

func TestMixtureMoments(t *testing.T) {
	// 50/50 mixture of Det(2) and Det(6): mean 4, E[X^2] = (4+36)/2 = 20.
	m := NewMixture(
		[]Distribution{Deterministic{Value: 2}, Deterministic{Value: 6}},
		[]float64{1, 1},
	)
	if got := m.Moment(1); got != 4 {
		t.Fatalf("mean = %v, want 4", got)
	}
	if got := m.Moment(2); got != 20 {
		t.Fatalf("E[X^2] = %v, want 20", got)
	}
	if got := m.Moment(-1); got != (0.5/2 + 0.5/6) {
		t.Fatalf("E[1/X] = %v", got)
	}
}

func TestMixtureCDFAndQuantile(t *testing.T) {
	m := NewMixture(
		[]Distribution{NewUniform(0, 1), NewUniform(10, 11)},
		[]float64{0.25, 0.75},
	)
	if got := m.CDF(1); !floatcmp.AlmostEqual(got, 0.25, 1e-12) {
		t.Fatalf("CDF(1) = %v, want 0.25", got)
	}
	if got := m.CDF(10.5); !floatcmp.AlmostEqual(got, 0.25+0.75*0.5, 1e-12) {
		t.Fatalf("CDF(10.5) = %v", got)
	}
	if q := m.Quantile(0.25 + 0.75*0.5); math.Abs(q-10.5) > 1e-6 {
		t.Fatalf("quantile = %v, want 10.5", q)
	}
	lo, hi := m.Support()
	if lo != 0 || hi != 11 {
		t.Fatalf("support [%v, %v]", lo, hi)
	}
}

func TestMixtureSampling(t *testing.T) {
	m := NewMixture(
		[]Distribution{NewExponential(1), NewExponential(100)},
		[]float64{0.8, 0.2},
	)
	rng := rand.New(rand.NewPCG(5, 6))
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		sum += m.Sample(rng)
	}
	want := 0.8*1 + 0.2*100
	if math.Abs(sum/n-want)/want > 0.03 {
		t.Fatalf("sample mean %v, want %v", sum/n, want)
	}
}

func TestMixturePartialMoments(t *testing.T) {
	m := NewMixture(
		[]Distribution{NewBoundedPareto(1.5, 1, 100), NewBoundedPareto(1.5, 100, 10000)},
		[]float64{0.9, 0.1},
	)
	whole := m.Moment(1)
	split := m.PartialMoment(1, 0, 100) + m.PartialMoment(1, 100, 10000)
	if !floatcmp.AlmostEqual(whole, split, 1e-9) {
		t.Fatalf("partial moments %v don't reassemble %v", split, whole)
	}
}

func TestMixtureDivergentMoment(t *testing.T) {
	m := NewMixture(
		[]Distribution{Deterministic{Value: 1}, NewExponential(1)},
		[]float64{0.5, 0.5},
	)
	if !math.IsInf(m.Moment(-1), 1) {
		t.Fatal("E[1/X] should diverge through the exponential component")
	}
}

func TestMixtureWeightNormalization(t *testing.T) {
	m := NewMixture(
		[]Distribution{Deterministic{Value: 1}, Deterministic{Value: 2}},
		[]float64{2, 6},
	)
	if !floatcmp.AlmostEqual(m.Weights[0], 0.25, 1e-12) {
		t.Fatalf("weights not normalized: %v", m.Weights)
	}
}

func TestMixtureValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewMixture(nil, nil) },
		func() { NewMixture([]Distribution{Deterministic{Value: 1}}, []float64{-1}) },
		func() { NewMixture([]Distribution{nil}, []float64{1}) },
		func() { NewMixture([]Distribution{Deterministic{Value: 1}}, []float64{0}) },
	} {
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
