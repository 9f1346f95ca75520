package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResultsGolden regenerates every table of `cmd/sweep -exp all` at the
// default configuration and compares its text and CSV renderings, byte
// for byte, with the committed results/<id>.txt and results/<id>.csv.
// Every committed file must come from some driver. A mismatch names the
// file, its first differing line and the command that regenerates it.
func TestResultsGolden(t *testing.T) {
	dir := filepath.Join("..", "..", "results")
	drivers := Drivers()
	written := map[string]bool{}
	for _, id := range IDs() {
		tables, err := drivers[id](Default())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tb := range tables {
			for _, out := range []struct{ ext, got string }{{".txt", tb.Format()}, {".csv", tb.CSV()}} {
				name := tb.ID + out.ext
				written[name] = true
				want, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Errorf("driver %s writes results/%s: %v", id, name, err)
					continue
				}
				if line, committed, generated, ok := firstDiff(string(want), out.got); !ok {
					t.Errorf("results/%s differs from driver %s at line %d:\n  committed: %q\n  generated: %q\n"+
						"regenerate with: go run ./cmd/sweep -exp %s -out results", name, id, line, committed, generated, id)
				}
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !written[e.Name()] {
			t.Errorf("results/%s is written by no driver in IDs()", e.Name())
		}
	}
}

// firstDiff compares two texts line by line. When they differ it returns
// the first differing line's number (from 1) and that line of each, ""
// for a text that has ended, and ok = false.
func firstDiff(a, b string) (line int, la, lb string, ok bool) {
	if a == b {
		return 0, "", "", true
	}
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		if i < len(as) {
			la = as[i]
		} else {
			la = ""
		}
		if i < len(bs) {
			lb = bs[i]
		} else {
			lb = ""
		}
		if la != lb || i >= len(as) || i >= len(bs) {
			return i + 1, la, lb, false
		}
	}
}
