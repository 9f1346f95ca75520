package main

import (
	"math"
	"testing"
)

func TestCheckSLO(t *testing.T) {
	for _, v := range []float64{0, 1, 50} {
		if err := checkSLO(v); err != nil {
			t.Errorf("checkSLO(%v) = %v, want nil", v, err)
		}
	}
	for _, v := range []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1)} {
		if err := checkSLO(v); err == nil {
			t.Errorf("checkSLO(%v) = nil, want an error", v)
		}
	}
}
