package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlagsHosts(t *testing.T) {
	if err := checkFlags("psc-c90", "", 2, 0.7, 30000, 0); err != nil {
		t.Fatalf("checkFlags with -hosts 2 = %v, want nil", err)
	}
	for _, hosts := range []int{1, 0, -3} {
		err := checkFlags("psc-c90", "", hosts, 0.7, 30000, 0)
		if err == nil || !strings.HasPrefix(err.Error(), "-hosts: ") || !strings.Contains(err.Error(), "at least 2 hosts") {
			t.Errorf("checkFlags with -hosts %d = %v, want a -hosts error saying SITA advice needs at least 2 hosts", hosts, err)
		}
	}
}

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
