package queueing

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	"sita/internal/dist"
	"sita/internal/sim"
)

// The cutoff searches evaluate their objective through hostSlowdown and
// the per-host cache of cutoffObjective. These tests hold both to the
// public reporting API, NewSITA(...).Analyze(), bit for bit.

// referenceSlowdown is the search objective spelled with the public API:
// +Inf unless the cutoffs strictly ascend and every host is stable, else
// Analyze's mean slowdown.
func referenceSlowdown(lambda float64, size dist.Distribution, cuts []float64) float64 {
	for k := 1; k < len(cuts); k++ {
		if cuts[k] <= cuts[k-1] {
			return math.Inf(1)
		}
	}
	r := NewSITA(lambda, size, cuts).Analyze()
	for _, hm := range r.Hosts {
		if hm.Load >= 1 {
			return math.Inf(1)
		}
	}
	return r.MeanSlowdown
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// differentialGrid is the (profile, hosts, load) grid the differential test
// covers: a short grid by default, the full one under SIMTEST_LONG.
func differentialGrid() (hosts []int, loads []float64, vectors int) {
	if os.Getenv("SIMTEST_LONG") != "" {
		return []int{3, 4, 6, 8}, []float64{0.3, 0.7, 0.9}, 40
	}
	return []int{3, 8}, []float64{0.7}, 6
}

// randomCuts draws h-1 ascending cutoffs near the equal-load ones: cutoff
// k carries the work fraction (k+1+u)/h, u uniform in [-0.2, 0.2), so a
// host's share of the load lies within 0.6/h..1.4/h. At load 0.7 every
// such system is stable, and trial moves cross into instability.
func randomCuts(rng *rand.Rand, size dist.BoundedPareto, h int) []float64 {
	cuts := make([]float64, h-1)
	for k := range cuts {
		frac := (float64(k+1) + 0.4*rng.Float64() - 0.2) / float64(h)
		cuts[k] = CutoffForShortLoad(1, size, frac*size.Moment(1))
	}
	return cuts
}

// TestObjectiveMatchesAnalyze checks the incremental objective against
// the reference on random ascending cutoff vectors and on every
// single-cutoff move from each: moves inside the neighbours, onto them,
// past them and beyond the support. After each cutoff's moves the best
// is accepted, so the cache refresh is checked too.
func TestObjectiveMatchesAnalyze(t *testing.T) {
	hostCounts, loads, vectors := differentialGrid()
	var trials, finite int
	for _, p := range profileSizes() {
		lo, hi := p.size.Support()
		for _, h := range hostCounts {
			for _, load := range loads {
				lambda := float64(h) * load / p.size.Moment(1)
				rng := sim.NewRNG(uint64(h), uint64(load*10))
				name := fmt.Sprintf("%s/h%d/rho%g", p.name, h, load)
				for v := 0; v < vectors; v++ {
					cuts := randomCuts(rng, p.size, h)
					want := append([]float64(nil), cuts...)
					obj := newCutoffObjective(lambda, p.size, cuts)
					if got, ref := obj.value(), referenceSlowdown(lambda, p.size, want); !sameBits(got, ref) {
						t.Fatalf("%s: value at %v = %v, Analyze %v", name, want, got, ref)
					}
					for i := range want {
						a, b := lo/2, hi*2
						if i > 0 {
							a = want[i-1]
						}
						if i < len(want)-1 {
							b = want[i+1]
						}
						// Onto the neighbours, past the support, and
						// to random work fractions between the
						// neighbours, where the search itself moves.
						moves := []float64{a, b, lo / 2, hi * 2}
						wa, wb := workBelow(1, p.size, a), workBelow(1, p.size, b)
						for m := 0; m < 8; m++ {
							moves = append(moves, CutoffForShortLoad(1, p.size, wa+(wb-wa)*rng.Float64()))
						}
						best, bestV := want[i], math.Inf(1)
						for _, c := range moves {
							old := want[i]
							want[i] = c
							got, ref := obj.trial(i, c), referenceSlowdown(lambda, p.size, want)
							want[i] = old
							if !sameBits(got, ref) {
								t.Fatalf("%s: cuts %v, cut %d -> %v: trial %v, Analyze %v", name, want, i, c, got, ref)
							}
							trials++
							if !math.IsInf(ref, 1) {
								finite++
							}
							if ref < bestV {
								best, bestV = c, ref
							}
						}
						// Accept the best move, as the search does.
						c := best
						obj.move(i, c)
						want[i] = c
						if got, ref := obj.value(), referenceSlowdown(lambda, p.size, want); !sameBits(got, ref) {
							t.Fatalf("%s: after move to %v: value %v, Analyze %v", name, want, got, ref)
						}
					}
				}
			}
		}
	}
	// A comparison of two +Inf says little: two thirds of the moves are
	// random ones between the neighbours, and many of those must leave
	// every host stable.
	if finite < trials/5 {
		t.Errorf("only %d of %d trial moves kept every host stable", finite, trials)
	}
	t.Logf("%d trial moves, %d with every host stable", trials, finite)
}

// TestHostSlowdownMatchesHostAnalysis checks the per-host helper itself
// against HostAnalysis, including hosts with no mass, whose slowdown the
// fair searches take as 1.
func TestHostSlowdownMatchesHostAnalysis(t *testing.T) {
	hostCounts, loads, vectors := differentialGrid()
	for _, p := range profileSizes() {
		for _, h := range hostCounts {
			for _, load := range loads {
				lambda := float64(h) * load / p.size.Moment(1)
				rng := sim.NewRNG(uint64(h), 7)
				for v := 0; v <= vectors; v++ {
					cuts := randomCuts(rng, p.size, h)
					if v == vectors { // last two hosts empty
						cuts[len(cuts)-1] = 2 * p.size.P
						cuts[len(cuts)-2] = 1.5 * p.size.P
					}
					s := NewSITA(lambda, p.size, cuts)
					for k, hm := range s.HostAnalysis() {
						lo, hi := s.interval(k)
						frac, slowdown, load := hostSlowdown(lambda, p.size, dist.NewEdge(p.size, lo), dist.NewEdge(p.size, hi))
						wantSlowdown := hm.MeanSlowdown
						if hm.JobFraction == 0 {
							wantSlowdown = 1
						}
						if !sameBits(frac, hm.JobFraction) || !sameBits(slowdown, wantSlowdown) || !sameBits(load, hm.Load) {
							t.Fatalf("%s h=%d cuts %v host %d: got (%v, %v, %v), HostAnalysis (%v, %v, %v)",
								p.name, h, cuts, k, frac, slowdown, load, hm.JobFraction, wantSlowdown, hm.Load)
						}
					}
				}
			}
		}
	}
}

func TestObjectiveTrialDoesNotAllocate(t *testing.T) {
	size := c90ish()
	const h = 8
	lambda := float64(h) * 0.7 / size.Moment(1)
	cuts, err := EqualLoadCutoffs(size, h)
	if err != nil {
		t.Fatal(err)
	}
	obj := newCutoffObjective(lambda, size, cuts)
	c := cuts[3] * (1 + 1e-3)
	var v float64
	if allocs := testing.AllocsPerRun(100, func() { v = obj.trial(3, c) }); allocs != 0 {
		t.Fatalf("trial allocates %v times per evaluation", allocs)
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("trial next to the equal-load cutoffs = %v, want finite", v)
	}
}

// TestCutoffSearchesDegenerateInputs runs all four searches on Bounded
// Pareto sizes at the edges of the parameter space: tail indices whose
// partial moments take the log branch (alpha = 1, 2), extreme ones (0.01,
// 30), a support 1e-12 wide and one 18 decades wide, and a load a hair
// below saturation. Each search must return an error or finite cutoffs
// that strictly ascend inside the support; it must never panic.
func TestCutoffSearchesDegenerateInputs(t *testing.T) {
	type search struct {
		name  string
		hosts int
		run   func(lambda float64, size dist.Distribution) ([]float64, error)
	}
	searches := []search{
		{"OptimalCutoff", 2, func(l float64, s dist.Distribution) ([]float64, error) {
			c, err := OptimalCutoff(l, s)
			return []float64{c}, err
		}},
		{"FairCutoff", 2, func(l float64, s dist.Distribution) ([]float64, error) {
			c, err := FairCutoff(l, s)
			return []float64{c}, err
		}},
	}
	for _, h := range []int{3, 4} {
		searches = append(searches,
			search{"OptimalCutoffs", h, func(l float64, s dist.Distribution) ([]float64, error) { return OptimalCutoffs(l, s, h) }},
			search{"FairCutoffs", h, func(l float64, s dist.Distribution) ([]float64, error) { return FairCutoffs(l, s, h) }})
	}
	supports := [][2]float64{{1, 1 + 1e-12}, {1e-9, 1e-9 * (1 + 1e-12)}, {1e-9, 1e9}}
	for _, alpha := range []float64{0.01, 1, 2, 30} {
		for _, sup := range supports {
			size := dist.NewBoundedPareto(alpha, sup[0], sup[1])
			for _, rho := range []float64{0.5, 0.999999} {
				for _, s := range searches {
					name := fmt.Sprintf("%s h=%d alpha=%g support=[%g,%g] rho=%g", s.name, s.hosts, alpha, sup[0], sup[1], rho)
					lambda := float64(s.hosts) * rho / size.Moment(1)
					cuts, err := runNoPanic(t, name, func() ([]float64, error) { return s.run(lambda, size) })
					if err != nil {
						continue
					}
					if len(cuts) != s.hosts-1 {
						t.Errorf("%s: %d cutoffs, want %d", name, len(cuts), s.hosts-1)
					}
					for k, c := range cuts {
						if math.IsNaN(c) || math.IsInf(c, 0) || c < size.K || c > size.P {
							t.Errorf("%s: cutoff %d = %v outside support [%v, %v]", name, k, c, size.K, size.P)
						}
						if k > 0 && !(c > cuts[k-1]) {
							t.Errorf("%s: cutoffs %v do not strictly ascend", name, cuts)
						}
					}
				}
			}
		}
	}
}

// runNoPanic calls fn, failing the test instead of crashing if it panics.
func runNoPanic(t *testing.T, name string, fn func() ([]float64, error)) (cuts []float64, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panic: %v", name, r)
			err = fmt.Errorf("panicked")
		}
	}()
	return fn()
}

// benchmarkSearch times one cutoff search on the C90-like size at load 0.7
// for each host count.
func benchmarkSearch(b *testing.B, hosts []int, search func(lambda float64, size dist.Distribution, h int) ([]float64, error)) {
	size := c90ish()
	for _, h := range hosts {
		lambda := float64(h) * 0.7 / size.Moment(1)
		b.Run(fmt.Sprintf("h%d", h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search(lambda, size, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptimalCutoff(b *testing.B) {
	benchmarkSearch(b, []int{2}, func(l float64, s dist.Distribution, _ int) ([]float64, error) {
		c, err := OptimalCutoff(l, s)
		return []float64{c}, err
	})
}

func BenchmarkFairCutoff(b *testing.B) {
	benchmarkSearch(b, []int{2}, func(l float64, s dist.Distribution, _ int) ([]float64, error) {
		c, err := FairCutoff(l, s)
		return []float64{c}, err
	})
}

func BenchmarkOptimalCutoffs(b *testing.B) { benchmarkSearch(b, []int{4, 6, 8}, OptimalCutoffs) }

func BenchmarkFairCutoffs(b *testing.B) { benchmarkSearch(b, []int{4, 8}, FairCutoffs) }
