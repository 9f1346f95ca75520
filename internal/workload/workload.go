// Package workload models the input side of a distributed server: arrival
// processes (Poisson, renewal, Markov-modulated), job-size
// sources, and the Source type that pairs them into a stream of jobs at a
// target system load.
//
// Determinism contract: every sampling path draws only from the sim.RNG
// streams handed in at construction, so the same (profile, seed, load,
// hosts) tuple always yields the identical job stream — the property the
// experiment harness, the golden record tests, and the simd response
// cache all build on. Sources are single-goroutine: each simulation cell
// builds its own, and nothing here is safe for concurrent use.
package workload

import (
	"fmt"
	"math/rand/v2"

	"sita/internal/dist"
	"sita/internal/sim"
)

// Job is one batch job: an arrival instant and a CPU service requirement in
// seconds. Hosts are identical and jobs get a host exclusively, so the
// service requirement fully determines execution time. Job aliases the
// event kernel's value type so typed event payloads (sim.Ev) can carry a
// job without boxing or an import cycle.
type Job = sim.Job

// ArrivalProcess produces successive interarrival gaps. Implementations may
// be stateful (MMPP); a fresh process must be built per simulation
// run.
type ArrivalProcess interface {
	// NextGap returns the time until the next arrival.
	NextGap(rng *rand.Rand) float64
}

// SizeSource produces successive job service requirements.
type SizeSource interface {
	// NextSize returns the next job's service requirement.
	NextSize(rng *rand.Rand) float64
}

// RateForLoad returns the arrival rate that drives a system of hosts
// identical unit-speed hosts at the given load when mean job size is
// meanSize: load = lambda * meanSize / hosts.
// Panics unless load, meanSize, and hosts are positive.
func RateForLoad(load, meanSize float64, hosts int) float64 {
	if !(load > 0 && meanSize > 0) || hosts <= 0 {
		panic(fmt.Sprintf("workload: invalid load=%v meanSize=%v hosts=%d", load, meanSize, hosts))
	}
	return load * float64(hosts) / meanSize
}

// Source generates the job stream fed to the dispatcher. Arrival gaps and
// job sizes come from independent RNG streams so that experiments can vary
// one dimension without disturbing the other.
type Source struct {
	arrivals ArrivalProcess
	sizes    SizeSource
	arrRNG   *rand.Rand
	sizeRNG  *rand.Rand
	clock    float64
	nextID   int
}

// NewSource pairs an arrival process with a size source. The two RNGs must
// be distinct generators (typically sim.NewRNG(seed, 0) and
// sim.NewRNG(seed, 1)). Panics if any component is nil.
func NewSource(arrivals ArrivalProcess, sizes SizeSource, arrRNG, sizeRNG *rand.Rand) *Source {
	if arrivals == nil || sizes == nil || arrRNG == nil || sizeRNG == nil {
		panic("workload: NewSource requires non-nil components")
	}
	return &Source{arrivals: arrivals, sizes: sizes, arrRNG: arrRNG, sizeRNG: sizeRNG}
}

// Next returns the next job in arrival order.
func (s *Source) Next() Job {
	s.clock += s.arrivals.NextGap(s.arrRNG)
	j := Job{ID: s.nextID, Arrival: s.clock, Size: s.sizes.NextSize(s.sizeRNG)}
	s.nextID++
	return j
}

// Take returns the next n jobs.
func (s *Source) Take(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = s.Next()
	}
	return jobs
}

// DistSizes adapts a probability distribution into a SizeSource.
type DistSizes struct {
	D dist.Distribution
}

// NextSize samples the distribution.
func (d DistSizes) NextSize(rng *rand.Rand) float64 { return d.D.Sample(rng) }
