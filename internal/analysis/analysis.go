// Package analysis is the simulator's static-analysis suite: six
// file-local analyzers (seedflow, nowallclock, maporder, floateq,
// panicpolicy, pairing) that machine-check the determinism, numeric and
// resource-lifecycle contracts the experiment pipeline depends on, and the
// small framework they run on. What a policy may read when it dispatches
// needs no analyzer: server.WorkPolicy and server.StatePolicy fix it in
// the type of Assign's view parameter. Nor do the read-only input and
// allocation contracts: the contract table in internal/server
// (TestReadOnlyContract), held to full statement coverage of every
// simulator function it enters, runs each write and each allocation those
// functions could make.
//
// The framework mirrors the golang.org/x/tools/go/analysis shape —
// an Analyzer holds a Run function over a type-checked Pass, diagnostics
// carry positions, testdata fixtures use "// want" comments — but is
// built only on the standard library (go/ast, go/types, go list) so the
// module stays dependency-free. See cmd/simvet for the CLI entry point
// and ARCHITECTURE.md for what each analyzer enforces and why.
//
// # Suppressions
//
// All analyzers share one suppression mechanism: a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line, or on the line directly above it, silences that
// analyzer there. The reason is mandatory — a suppression must say why
// the exception is sound — and a malformed or unknown-analyzer directive
// is itself reported, so the allowlist stays self-documenting.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects one package per pass.
// Suppression filtering and diagnostic ordering are handled by the
// driver, not by individual analyzers.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:allow
	Doc  string // one-paragraph description of the contract enforced
	Run  func(pass *Pass)
}

// A Pass couples one analyzer with one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// AllowPrefix is the comment prefix of a suppression directive.
const AllowPrefix = "//lint:allow"

// directive is one parsed //lint:allow comment.
type directive struct {
	analyzer string
	reason   string
	line     int
	pos      token.Pos
}

// simPrefix is the prefix of the retired //sim: contract directives.
const simPrefix = "//sim:"

// parseDirectives scans a file's comments for suppression directives.
// Malformed directives (missing analyzer or reason, or naming an analyzer
// that is not running) are reported as diagnostics of the pseudo-analyzer
// "lint" so typos cannot silently disable a check. So is any //sim:
// directive: the contracts they once declared (noalloc, readonly) are
// checked at run time now, and a marker would promise a check that does
// not run.
func parseDirectives(pkg *Package, file *ast.File, known map[string]bool, diags *[]Diagnostic) []directive {
	var out []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			bad := func(format string, args ...any) {
				*diags = append(*diags, Diagnostic{
					Analyzer: "lint",
					Pos:      pkg.Fset.Position(c.Pos()),
					Message:  fmt.Sprintf(format, args...),
				})
			}
			if strings.HasPrefix(c.Text, simPrefix) {
				bad("%s is not a directive: the allocation and read-only contracts are checked at run time (internal/server TestReadOnlyContract)", c.Text)
				continue
			}
			if !strings.HasPrefix(c.Text, AllowPrefix) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(c.Text, AllowPrefix))
			if len(fields) == 0 {
				bad("malformed %s: need an analyzer name and a reason", AllowPrefix)
				continue
			}
			if !known[fields[0]] {
				bad("%s names unknown analyzer %q", AllowPrefix, fields[0])
				continue
			}
			if len(fields) < 2 {
				bad("%s %s: a suppression must carry a reason", AllowPrefix, fields[0])
				continue
			}
			out = append(out, directive{
				analyzer: fields[0],
				reason:   strings.Join(fields[1:], " "),
				line:     pkg.Fset.Position(c.Pos()).Line,
				pos:      c.Pos(),
			})
		}
	}
	return out
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics in deterministic (file, line, column, analyzer) order.
// A diagnostic is dropped when a matching //lint:allow directive sits on
// the same line or the line directly above it. A directive that drops
// nothing is itself reported as stale (pseudo-analyzer "lint"), so the
// allowlist cannot outlive the findings it was written for.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var diags []Diagnostic
	// allowed maps (filename, line, analyzer) to its suppression record,
	// which tracks whether the directive ever matched a diagnostic.
	type key struct {
		file     string
		line     int
		analyzer string
	}
	type allowRec struct {
		pos  token.Position
		used bool
	}
	allowed := make(map[key]*allowRec)

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range parseDirectives(pkg, f, known, &diags) {
				p := pkg.Fset.Position(d.pos)
				allowed[key{p.Filename, d.line, d.analyzer}] = &allowRec{pos: p}
			}
		}
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if rec := allowed[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; rec != nil {
			rec.used = true
			continue
		}
		if rec := allowed[key{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]; rec != nil {
			rec.used = true
			continue
		}
		kept = append(kept, d)
	}
	for k, rec := range allowed {
		if rec.used {
			continue
		}
		kept = append(kept, Diagnostic{
			Analyzer: "lint",
			Pos:      rec.pos,
			Message:  fmt.Sprintf("stale %s %s: it no longer suppresses anything; delete it", AllowPrefix, k.analyzer),
		})
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}

// Analyzers returns the full simvet suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Seedflow, NoWallClock, MapOrder, FloatEq, PanicPolicy, Pairing}
}
