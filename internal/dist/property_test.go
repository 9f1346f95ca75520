package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// sampleOnly names the one family with neither a quantile function nor
// partial moments: lognormal is only ever sampled, as a burstiness gap
// distribution.
const sampleOnly = "lognormal"

// allDistributions builds one instance of every distribution family for
// table-driven property tests.
func allDistributions() map[string]Distribution {
	return map[string]Distribution{
		"exponential":   NewExponential(3),
		"deterministic": Deterministic{Value: 5},
		"uniform":       NewUniform(2, 9),
		"lognormal":     NewLognormalFromMeanSCV(4, 3),
		"boundedpareto": NewBoundedPareto(1.1, 1, 1e5),
		"hyperexp":      NewH2Balanced(6, 4),
		"empirical":     NewEmpirical([]float64{1, 2, 2, 3, 8, 13}),
		"truncated":     NewTruncated(NewBoundedPareto(1.1, 1, 1e5), 10, 1000),
	}
}

func TestCDFMonotoneEverywhere(t *testing.T) {
	for name, d := range allDistributions() {
		lo, hi := d.Support()
		if math.IsInf(hi, 1) {
			hi = 1e6
		}
		if lo <= 0 {
			lo = 1e-9
		}
		prev := -1.0
		for i := 0; i <= 200; i++ {
			x := lo * math.Pow(hi/lo, float64(i)/200)
			c := d.CDF(x)
			if c < prev-1e-12 {
				t.Errorf("%s: CDF not monotone at %v (%v after %v)", name, x, c, prev)
				break
			}
			if c < 0 || c > 1+1e-12 {
				t.Errorf("%s: CDF(%v) = %v outside [0,1]", name, x, c)
				break
			}
			prev = c
		}
		if got := d.CDF(lo / 2); name != "deterministic" && got > 0.51 {
			t.Errorf("%s: CDF below support = %v", name, got)
		}
	}
}

func TestSamplesRespectSupport(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for name, d := range allDistributions() {
		lo, hi := d.Support()
		for i := 0; i < 5000; i++ {
			x := d.Sample(rng)
			if x < lo-1e-9 || x > hi+1e-9 {
				t.Errorf("%s: sample %v outside [%v, %v]", name, x, lo, hi)
				break
			}
		}
	}
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	for name, d := range allDistributions() {
		q, ok := d.(Quantiler)
		if !ok {
			if name != sampleOnly {
				t.Errorf("%s: no quantile function", name)
			}
			continue
		}
		for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
			x := q.Quantile(p)
			got := d.CDF(x)
			// Discrete distributions (deterministic, empirical) only
			// guarantee CDF(Quantile(p)) >= p.
			if got < p-1e-6 {
				t.Errorf("%s: CDF(Quantile(%v)) = %v < p", name, p, got)
			}
		}
	}
}

func TestMeanConsistentWithPartialMoments(t *testing.T) {
	// For every distribution, splitting E[X] at the median must recompose.
	for name, d := range allDistributions() {
		if name == sampleOnly {
			continue
		}
		q := d.(Quantiler)
		med := q.Quantile(0.5)
		lo, hi := d.Support()
		if math.IsInf(hi, 1) {
			hi = math.Inf(1)
		}
		if med <= lo || (med >= hi && name != "deterministic") {
			continue
		}
		whole := d.Moment(1)
		split := PartialMoment(d, 1, lo-1, med) + PartialMoment(d, 1, med, hi)
		if math.Abs(whole-split)/whole > 1e-3 {
			t.Errorf("%s: E[X] = %v but partial split gives %v", name, whole, split)
		}
	}
}

func TestSquaredCVMatchesSamples(t *testing.T) {
	// For light-tailed families the sample SCV must approach the analytic
	// one (heavy tails excluded: their SCV estimator doesn't converge).
	rng := rand.New(rand.NewPCG(7, 8))
	for _, name := range []string{"exponential", "uniform", "empirical"} {
		d := allDistributions()[name]
		var sum, sum2 float64
		const n = 400000
		for i := 0; i < n; i++ {
			x := d.Sample(rng)
			sum += x
			sum2 += x * x
		}
		m := sum / n
		scv := (sum2/n - m*m) / (m * m)
		want := SquaredCV(d)
		if math.Abs(scv-want) > 0.05*(1+want) {
			t.Errorf("%s: sample SCV %v vs analytic %v", name, scv, want)
		}
	}
}

func TestLoadCutoffProperty(t *testing.T) {
	// For random Bounded Paretos, LoadCutoff(f) must split the mean into
	// f : 1-f, and be monotone in f.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		b := NewBoundedPareto(0.4+rng.Float64()*1.8, 1+rng.Float64()*10, 1e5)
		prev := 0.0
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			c := b.LoadCutoff(frac)
			if c < prev {
				return false
			}
			prev = c
			below := b.PartialMoment(1, b.K, c)
			if math.Abs(below-frac*b.Moment(1)) > 1e-4*b.Moment(1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
