package experiment

import (
	"strings"
	"testing"
)

// TestEveryDriverSmoke runs every registered experiment driver at a tiny
// scale and validates its output end to end: at least one populated table,
// and all three render formats free of NaN leakage. This is the catch-all
// regression net for new drivers.
func TestEveryDriverSmoke(t *testing.T) {
	cfg := Default()
	cfg.Jobs = 2500
	cfg.Loads = []float64{0.5, 0.7}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			driver := Drivers()[id]
			if driver == nil {
				t.Fatalf("driver %q missing from registry", id)
			}
			tables, err := driver(cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", id)
			}
			for _, tb := range tables {
				if len(tb.SeriesNames()) == 0 || len(tb.Xs()) == 0 {
					t.Errorf("%s/%s: empty table", id, tb.ID)
					continue
				}
				text := tb.Format()
				if strings.Contains(text, "NaN") {
					t.Errorf("%s/%s: NaN leaked into text output:\n%s", id, tb.ID, text)
				}
				if !strings.Contains(text, tb.ID) {
					t.Errorf("%s/%s: table id missing from header", id, tb.ID)
				}
				csv := tb.CSV()
				if strings.Contains(csv, "NaN") {
					t.Errorf("%s/%s: NaN leaked into CSV", id, tb.ID)
				}
				if lines := strings.Count(csv, "\n"); lines < 2 {
					t.Errorf("%s/%s: CSV has only %d lines", id, tb.ID, lines)
				}
				chart := tb.Plot(true)
				if strings.Contains(chart, "NaN") {
					t.Errorf("%s/%s: NaN leaked into chart", id, tb.ID)
				}
			}
		})
	}
}

// TestDriverDeterminism re-runs a simulation driver with the same seed and
// demands identical outputs — the reproducibility guarantee the whole
// experiment suite rests on.
func TestDriverDeterminism(t *testing.T) {
	withCellMemo(t, 0) // the re-run simulates again
	cfg := Default()
	cfg.Jobs = 4000
	cfg.Loads = []float64{0.6}
	a, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].CSV() != b[i].CSV() {
			t.Fatalf("driver not deterministic for table %s", a[i].ID)
		}
	}
	// A different seed must actually change simulated values.
	cfg.Seed = 999
	c, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].CSV() == c[0].CSV() {
		t.Fatal("different seed produced identical simulation output")
	}
}
