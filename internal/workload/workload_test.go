package workload

import (
	"math"
	"testing"

	"sita/internal/dist"
	"sita/internal/sim"
	"sita/internal/stats"
)

func TestRateForLoad(t *testing.T) {
	// load 0.5, mean size 10, 2 hosts -> lambda = 0.5*2/10 = 0.1
	if got := RateForLoad(0.5, 10, 2); got != 0.1 {
		t.Fatalf("rate = %v, want 0.1", got)
	}
}

func TestRateForLoadPanics(t *testing.T) {
	for _, c := range []struct {
		load, mean float64
		hosts      int
	}{{0, 1, 1}, {math.NaN(), 1, 1}, {0.5, math.NaN(), 1}, {0.5, 0, 1}, {0.5, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RateForLoad(%v, %v, %d) did not panic", c.load, c.mean, c.hosts)
				}
			}()
			RateForLoad(c.load, c.mean, c.hosts)
		}()
	}
}

func TestPoissonGapMean(t *testing.T) {
	p := NewPoisson(2)
	rng := sim.NewRNG(1, 0)
	var s stats.Stream
	for i := 0; i < 100000; i++ {
		s.Add(p.NextGap(rng))
	}
	if math.Abs(s.Mean()-0.5)/0.5 > 0.02 {
		t.Fatalf("poisson mean gap = %v, want 0.5", s.Mean())
	}
	if math.Abs(s.SquaredCV()-1) > 0.05 {
		t.Fatalf("poisson gap C^2 = %v, want 1", s.SquaredCV())
	}
}

func TestSourceArrivalsIncrease(t *testing.T) {
	src := NewSource(NewPoisson(1), DistSizes{D: dist.NewExponential(5)},
		sim.NewRNG(7, 0), sim.NewRNG(7, 1))
	jobs := src.Take(1000)
	prev := 0.0
	for i, j := range jobs {
		if j.ID != i {
			t.Fatalf("job ID %d at position %d", j.ID, i)
		}
		if j.Arrival < prev {
			t.Fatalf("arrival times not monotone at %d", i)
		}
		if j.Size <= 0 {
			t.Fatalf("nonpositive size %v", j.Size)
		}
		prev = j.Arrival
	}
}

func TestSourceDeterminism(t *testing.T) {
	mk := func() *Source {
		return NewSource(NewPoisson(1), DistSizes{D: dist.NewExponential(5)},
			sim.NewRNG(3, 0), sim.NewRNG(3, 1))
	}
	a, b := mk().Take(100), mk().Take(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different jobs at %d", i)
		}
	}
}

func TestSourceLoadTargeting(t *testing.T) {
	// Drive 2 hosts at load 0.7 with mean-10 sizes; realized load should be
	// close to target.
	const hosts = 2
	d := dist.NewBoundedPareto(1.5, 1, 1e4)
	rate := RateForLoad(0.7, d.Moment(1), hosts)
	src := NewSource(NewPoisson(rate), DistSizes{D: d},
		sim.NewRNG(11, 0), sim.NewRNG(11, 1))
	jobs := src.Take(200000)
	totalWork := 0.0
	for _, j := range jobs {
		totalWork += j.Size
	}
	horizon := jobs[len(jobs)-1].Arrival
	realized := totalWork / (horizon * hosts)
	if math.Abs(realized-0.7) > 0.05 {
		t.Fatalf("realized load = %v, want ~0.7", realized)
	}
}

func TestRenewalLognormalBurstiness(t *testing.T) {
	g := dist.NewLognormalFromMeanSCV(1, 25)
	r := Renewal{Gap: g}
	rng := sim.NewRNG(13, 0)
	var s stats.Stream
	for i := 0; i < 300000; i++ {
		s.Add(r.NextGap(rng))
	}
	if math.Abs(s.Mean()-1) > 0.1 {
		t.Fatalf("renewal mean gap = %v, want 1", s.Mean())
	}
	if s.SquaredCV() < 5 {
		t.Fatalf("renewal gap C^2 = %v, want bursty (>5)", s.SquaredCV())
	}
}

func TestMMPP2MeanRate(t *testing.T) {
	m := NewMMPP2(0.1, 10, 0.01, 0.1)
	// The long-run rate mixes the state rates by the chain's stationary
	// P(lo) = switchHi/(switchLo+switchHi) = 0.1/0.11 ~ 0.909.
	want := (0.1/0.11)*0.1 + (0.01/0.11)*10
	rng := sim.NewRNG(17, 0)
	n := 200000
	total := 0.0
	for i := 0; i < n; i++ {
		g := m.NextGap(rng)
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		total += g
	}
	realized := float64(n) / total
	if math.Abs(realized-want)/want > 0.1 {
		t.Fatalf("realized rate = %v, want %v", realized, want)
	}
}

func TestMMPP2IsBursty(t *testing.T) {
	m := NewMMPP2(0.05, 20, 0.02, 0.2)
	rng := sim.NewRNG(19, 0)
	var s stats.Stream
	for i := 0; i < 100000; i++ {
		s.Add(m.NextGap(rng))
	}
	if s.SquaredCV() < 2 {
		t.Fatalf("MMPP2 gap C^2 = %v, want > 2 (bursty)", s.SquaredCV())
	}
}

func TestArrivalProcessValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewPoisson(-1) },
		func() { NewMMPP2(-1, 1, 1, 1) },
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

func TestSourceNilComponentsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSource(nil, nil, nil, nil)
}
