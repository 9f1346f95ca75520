// Command simvet runs the simulator's static-analysis suite over the
// given package patterns (default ./...) and exits nonzero on findings.
// It is the CI gate for the determinism, numeric-correctness, allocation
// and resource-lifecycle contracts (seven analyzers: six file-local, one
// interprocedural); see internal/analysis for the analyzers.
//
// Usage:
//
//	go run ./cmd/simvet ./...               # the whole module
//	go run ./cmd/simvet -list               # describe the analyzers
//	go run ./cmd/simvet ./internal/sim      # one package
//
// There is one suppression mechanism, in the source: a
// //lint:allow <analyzer> <reason> comment on or above the flagged line.
// A directive that no longer suppresses anything is itself a finding, so
// the accepted exceptions can only shrink with the code they excuse.
//
// Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sita/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simvet [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simvet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simvet:", err)
		os.Exit(2)
	}

	diags := relativize(analysis.Run(pkgs, analyzers), wd)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// relativize rewrites each diagnostic's file name relative to root, with
// forward slashes, so reports read the same in every checkout.
func relativize(diags []analysis.Diagnostic, root string) []analysis.Diagnostic {
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	return diags
}
