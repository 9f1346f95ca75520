package main

import (
	"go/token"
	"path/filepath"
	"testing"

	"sita/internal/analysis"
)

func TestRelativizePaths(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("mod", "root")
	diags := []analysis.Diagnostic{
		{
			Analyzer: "nowallclock",
			Pos:      token.Position{Filename: filepath.Join(root, "internal", "sim", "engine.go"), Line: 7, Column: 2},
			Message:  "m",
		},
		{
			Analyzer: "floateq",
			Pos:      token.Position{Filename: string(filepath.Separator) + filepath.Join("elsewhere", "z.go"), Line: 1, Column: 1},
			Message:  "n",
		},
	}
	ds := relativize(diags, root)
	if ds[0].Pos.Filename != "internal/sim/engine.go" {
		t.Errorf("in-module path = %q, want module-relative slash path", ds[0].Pos.Filename)
	}
	// Out-of-module paths relativize too (filepath.Rel succeeds with ..);
	// the rest of the diagnostic is untouched.
	if ds[1].Pos.Filename != "../../elsewhere/z.go" || ds[1].Pos.Line != 1 || ds[1].Analyzer != "floateq" {
		t.Errorf("second diagnostic mangled: %+v", ds[1])
	}
}
