package queueing

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sita/internal/dist"
	"sita/internal/trace"
)

// The cutoff golden pins every SITA cutoff search bit for bit: the 2-host
// OptimalCutoff and FairCutoff and the h-host OptimalCutoffs and
// FairCutoffs, for the three built-in workload profiles over a grid of
// host counts and loads. Cutoffs are written as hex floats, so any change
// to the objective's floating-point operations, the search's steps or its
// acceptance rule shows up as a diff here before it can move results/.
//
// On a mismatch the test logs the current lines; regenerate the file
// (only when a search is meant to change) by running
//
//	go test ./internal/queueing -run TestCutoffGolden -v
//
// and copying the logged lines into testdata/cutoffs.golden.

const cutoffGoldenFile = "cutoffs.golden"

// profileSize is a built-in workload profile's fitted size distribution.
type profileSize struct {
	name string
	size dist.BoundedPareto
}

// profileSizes returns the C90, J90 and CTC size distributions.
func profileSizes() []profileSize {
	var out []profileSize
	for _, p := range []trace.Profile{trace.C90(), trace.J90(), trace.CTC()} {
		out = append(out, profileSize{p.Name, p.MustSizeDist()})
	}
	return out
}

var (
	goldenHosts = []int{3, 4, 6, 8}
	goldenLoads = []float64{0.3, 0.7, 0.9}
)

// formatCuts renders a search outcome as one golden line's tail.
func formatCuts(cuts []float64, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	parts := make([]string, len(cuts))
	for i, c := range cuts {
		parts[i] = strconv.FormatFloat(c, 'x', -1, 64)
	}
	return strings.Join(parts, " ")
}

// cutoffGoldenLines runs every pinned search and renders one line each.
func cutoffGoldenLines() []string {
	var lines []string
	for _, p := range profileSizes() {
		for _, load := range goldenLoads {
			lambda := 2 * load / p.size.Moment(1)
			c, err := OptimalCutoff(lambda, p.size)
			lines = append(lines, fmt.Sprintf("%s h=2 rho=%g opt %s", p.name, load, formatCuts([]float64{c}, err)))
			c, err = FairCutoff(lambda, p.size)
			lines = append(lines, fmt.Sprintf("%s h=2 rho=%g fair %s", p.name, load, formatCuts([]float64{c}, err)))
			for _, h := range goldenHosts {
				lambda := float64(h) * load / p.size.Moment(1)
				cuts, err := OptimalCutoffs(lambda, p.size, h)
				lines = append(lines, fmt.Sprintf("%s h=%d rho=%g opt %s", p.name, h, load, formatCuts(cuts, err)))
				cuts, err = FairCutoffs(lambda, p.size, h)
				lines = append(lines, fmt.Sprintf("%s h=%d rho=%g fair %s", p.name, h, load, formatCuts(cuts, err)))
			}
		}
	}
	return lines
}

func TestCutoffGolden(t *testing.T) {
	got := cutoffGoldenLines()
	raw, err := os.ReadFile(filepath.Join("testdata", cutoffGoldenFile))
	if err != nil {
		t.Logf("current lines:\n%s", strings.Join(got, "\n"))
		t.Fatalf("read golden: %v", err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	mismatch := len(got) != len(want)
	if mismatch {
		t.Errorf("golden has %d lines, searches produced %d", len(want), len(got))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
			mismatch = true
		}
	}
	if mismatch {
		t.Logf("current lines:\n%s", strings.Join(got, "\n"))
	}
}
