package workload

import (
	"fmt"
	"math/rand/v2"

	"sita/internal/dist"
)

// Poisson is the Poisson arrival process with the given rate: i.i.d.
// exponential gaps, squared coefficient of variation 1. This is the paper's
// default arrival model (sections 2–5).
type Poisson struct {
	Rate float64
}

// NewPoisson validates the rate. Panics if rate <= 0.
func NewPoisson(rate float64) Poisson {
	if rate <= 0 {
		panic(fmt.Sprintf("workload: poisson rate must be positive, got %v", rate))
	}
	return Poisson{Rate: rate}
}

// NextGap draws an exponential interarrival time.
func (p Poisson) NextGap(rng *rand.Rand) float64 { return rng.ExpFloat64() / p.Rate }

// Renewal draws i.i.d. gaps from an arbitrary distribution. With lognormal
// gaps of high squared coefficient of variation it produces the bursty
// arrival streams of section 6.
type Renewal struct {
	Gap dist.Distribution
}

// NextGap samples the gap distribution.
func (r Renewal) NextGap(rng *rand.Rand) float64 { return r.Gap.Sample(rng) }

// MMPP2 is a two-state Markov-modulated Poisson process: arrivals follow a
// Poisson process whose rate switches between RateLo and RateHi; the process
// stays in each state for an exponential sojourn. It captures the
// "many jobs with similar runtimes arrive simultaneously" burstiness the
// paper calls out, while remaining fully parameterized.
type MMPP2 struct {
	RateLo, RateHi     float64 // arrival rate in each state
	SwitchLo, SwitchHi float64 // rate of leaving the lo / hi state
	inHi               bool
	residual           float64 // time left in the current state
}

// NewMMPP2 validates parameters and starts in the low state.
// Panics unless all four rates are positive.
func NewMMPP2(rateLo, rateHi, switchLo, switchHi float64) *MMPP2 {
	if rateLo < 0 || rateHi <= 0 || switchLo <= 0 || switchHi <= 0 {
		panic(fmt.Sprintf("workload: invalid MMPP2 parameters %v %v %v %v",
			rateLo, rateHi, switchLo, switchHi))
	}
	return &MMPP2{RateLo: rateLo, RateHi: rateHi, SwitchLo: switchLo, SwitchHi: switchHi}
}

// InHigh reports whether the modulating chain is currently in the
// high-rate (burst) state. Callers can use this to correlate other job
// attributes — e.g. sizes — with bursts.
func (m *MMPP2) InHigh() bool { return m.inHi }

// NextGap advances the modulating chain and returns the next gap.
func (m *MMPP2) NextGap(rng *rand.Rand) float64 {
	elapsed := 0.0
	for {
		rate, leave := m.RateLo, m.SwitchLo
		if m.inHi {
			rate, leave = m.RateHi, m.SwitchHi
		}
		if m.residual <= 0 {
			m.residual = rng.ExpFloat64() / leave
		}
		var gap float64
		if rate > 0 {
			gap = rng.ExpFloat64() / rate
		} else {
			gap = m.residual + 1 // force a state switch
		}
		if gap <= m.residual {
			m.residual -= gap
			return elapsed + gap
		}
		// State expires before the next arrival: burn the residual and
		// re-draw in the new state (memorylessness makes this exact).
		elapsed += m.residual
		m.residual = 0
		m.inHi = !m.inHi
	}
}
