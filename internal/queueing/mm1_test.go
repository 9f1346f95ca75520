package queueing

import (
	"math"
	"testing"

	"sita/internal/dist"
	"sita/internal/floatcmp"
)

// TestMM1MatchesMG1Exponential pins the direct M/M/1 forms to the general
// Pollaczek-Khinchine machinery with an exponential size distribution:
// the two derivations must agree to floating-point noise.
func TestMM1MatchesMG1Exponential(t *testing.T) {
	for _, rho := range []float64{0.1, 0.5, 0.7, 0.9, 0.99} {
		mean := 3.5
		lambda := rho / mean
		mm1 := NewMM1(lambda, mean)
		mg1 := NewMG1(lambda, dist.NewExponential(mean))
		if got, want := mm1.MeanWait(), mg1.MeanWait(); !floatcmp.AlmostEqual(got, want, 1e-12) {
			t.Errorf("rho=%v: MM1 MeanWait %v != MG1 %v", rho, got, want)
		}
		if got, want := mm1.MeanResponse(), mg1.MeanResponse(); !floatcmp.AlmostEqual(got, want, 1e-12) {
			t.Errorf("rho=%v: MM1 MeanResponse %v != MG1 %v", rho, got, want)
		}
		if got, want := mm1.MeanQueueLength(), lambda*mg1.MeanWait(); !floatcmp.AlmostEqual(got, want, 1e-12) {
			t.Errorf("rho=%v: MM1 MeanQueueLength %v != lambda*MG1 MeanWait %v", rho, got, want)
		}
	}
}

// TestMM1Identities checks the textbook identities: E[T] = E[W] + E[X],
// E[N] = lambda*E[T] (Little), E[N] = E[Q] + rho, instability at rho >= 1.
func TestMM1Identities(t *testing.T) {
	q := NewMM1(0.2, 4) // rho = 0.8
	if got, want := q.MeanResponse(), q.MeanWait()+q.MeanService; !floatcmp.AlmostEqual(got, want, 1e-12) {
		t.Errorf("E[T] %v != E[W]+E[X] %v", got, want)
	}
	if got, want := q.MeanJobsInSystem(), q.Lambda*q.MeanResponse(); !floatcmp.AlmostEqual(got, want, 1e-12) {
		t.Errorf("E[N] %v != lambda*E[T] %v", got, want)
	}
	if got, want := q.MeanJobsInSystem(), q.MeanQueueLength()+q.Load(); !floatcmp.AlmostEqual(got, want, 1e-12) {
		t.Errorf("E[N] %v != E[Q]+rho %v", got, want)
	}
	unstable := NewMM1(1, 1)
	for name, v := range map[string]float64{
		"MeanWait":         unstable.MeanWait(),
		"MeanResponse":     unstable.MeanResponse(),
		"MeanQueueLength":  unstable.MeanQueueLength(),
		"MeanJobsInSystem": unstable.MeanJobsInSystem(),
	} {
		if !math.IsInf(v, 1) {
			t.Errorf("unstable %s = %v, want +Inf", name, v)
		}
	}
}

// TestMMhOneServerMatchesMM1Direct pins the Erlang-C machinery at h=1 to the M/M/1
// forms.
func TestMMhOneServerMatchesMM1Direct(t *testing.T) {
	for _, rho := range []float64{0.3, 0.7, 0.95} {
		mean := 2.0
		lambda := rho / mean
		mm1 := NewMM1(lambda, mean)
		mmh := NewMMh(lambda, mean, 1)
		if got, want := mmh.MeanWait(), mm1.MeanWait(); !floatcmp.AlmostEqual(got, want, 1e-12) {
			t.Errorf("rho=%v: MMh(1) MeanWait %v != MM1 %v", rho, got, want)
		}
	}
}
