package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden-fixture convention mirrors x/tools' analysistest: a fixture
// line that should be flagged carries a trailing comment of the form
//
//	// want `regexp` `regexp` ...
//
// with one regexp per expected diagnostic on that line, matched against
// the diagnostic message. Lines without a want comment must produce no
// diagnostics, so the fixtures pin both the positive and negative
// behavior of every analyzer, including the //lint:allow suppressions.

// wantToken extracts the quoted regexps of a want comment (backquoted or
// double-quoted, per strconv.Unquote).
var wantToken = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type wantKey struct {
	file string
	line int
}

// parseWants collects the want comments of every fixture file, keyed by
// position.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				toks := wantToken.FindAllString(strings.TrimPrefix(text, "want "), -1)
				if len(toks) == 0 {
					t.Fatalf("%s: want comment carries no quoted regexp", pos)
				}
				k := wantKey{pos.Filename, pos.Line}
				for _, tok := range toks {
					pat, err := strconv.Unquote(tok)
					if err != nil {
						t.Fatalf("%s: unquoting %s: %v", pos, tok, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: compiling want regexp %q: %v", pos, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

// runFixture loads one testdata package, runs the full suite over it, and
// checks the diagnostics against the fixture's want comments.
func runFixture(t *testing.T, name string) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	wants := parseWants(t, pkgs[0].Fset, pkgs[0].Files)
	for _, d := range Run(pkgs, Analyzers()) {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				wants[k][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: no diagnostic matched want %q", k.file, k.line, re)
			}
		}
	}
}

func TestAnalyzers(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) { runFixture(t, a.Name) })
	}
}

// TestAnalyzersRegistered pins the suite composition: adding an analyzer
// without a fixture directory must fail loudly here, not silently skip.
func TestAnalyzersRegistered(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v is missing a name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if _, err := os.Stat(filepath.Join("testdata", "src", a.Name)); err != nil {
			t.Errorf("analyzer %q has no fixture directory: %v", a.Name, err)
		}
	}
}

// parseSource type-checks nothing: it builds the minimal Package that
// parseDirectives needs (a file set) for directive-syntax tests.
func parseSource(t *testing.T, src string) (*Package, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "directive.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing directive fixture: %v", err)
	}
	return &Package{Fset: fset}, f
}

// TestDirectiveValidation checks that malformed //lint:allow comments are
// reported rather than silently ignored, and that well-formed ones parse.
func TestDirectiveValidation(t *testing.T) {
	known := map[string]bool{"seedflow": true}
	cases := []struct {
		name       string
		comment    string
		wantDiag   string // substring of the lint diagnostic, "" for none
		directives int
	}{
		{"bare", "//lint:allow", "need an analyzer name and a reason", 0},
		{"unknown", "//lint:allow bogus some reason", `unknown analyzer "bogus"`, 0},
		{"reasonless", "//lint:allow seedflow", "must carry a reason", 0},
		{"valid", "//lint:allow seedflow reseeding is isolated here", "", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, f := parseSource(t, "package p\n\n"+tc.comment+"\nvar x = 1\n")
			var diags []Diagnostic
			ds := parseDirectives(pkg, f, known, &diags)
			if len(ds) != tc.directives {
				t.Errorf("got %d directives, want %d", len(ds), tc.directives)
			}
			if tc.wantDiag == "" {
				if len(diags) != 0 {
					t.Errorf("unexpected diagnostics: %v", diags)
				}
				return
			}
			if len(diags) != 1 || diags[0].Analyzer != "lint" ||
				!strings.Contains(diags[0].Message, tc.wantDiag) {
				t.Errorf("got %v, want one lint diagnostic containing %q", diags, tc.wantDiag)
			}
		})
	}
	t.Run("reason-joined", func(t *testing.T) {
		pkg, f := parseSource(t, "package p\n\n//lint:allow seedflow a b c\nvar x = 1\n")
		var diags []Diagnostic
		ds := parseDirectives(pkg, f, known, &diags)
		if len(ds) != 1 || ds[0].analyzer != "seedflow" || ds[0].reason != "a b c" {
			t.Fatalf("got %+v, want one seedflow directive with reason \"a b c\"", ds)
		}
	})
}

// TestSimDirectiveValidation checks that every //sim: directive is
// reported: the contracts the verbs declared are checked at run time, so
// a marker would promise a check that does not run.
func TestSimDirectiveValidation(t *testing.T) {
	for _, comment := range []string{"//sim:noalloc", "//sim:readonly jobs", "//sim:"} {
		pkg, f := parseSource(t, "package p\n\n"+comment+"\nfunc F() {}\n")
		var diags []Diagnostic
		parseDirectives(pkg, f, nil, &diags)
		if len(diags) != 1 || diags[0].Analyzer != "lint" ||
			!strings.Contains(diags[0].Message, comment+" is not a directive") {
			t.Errorf("%s: got %v, want one lint diagnostic that it is not a directive", comment, diags)
		}
	}
}

// TestStaleAllowReported pins the stale-suppression check: a directive
// with nothing to suppress is itself a finding, a used one is not.
func TestStaleAllowReported(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/staleallow")
	if err != nil {
		t.Fatalf("loading staleallow fixture: %v", err)
	}
	diags := Run(pkgs, Analyzers())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the stale directive: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lint" || !strings.Contains(d.Message, "stale") ||
		!strings.Contains(d.Message, "nowallclock") {
		t.Errorf("got %v, want a lint diagnostic for the stale nowallclock allow", d)
	}
	if !strings.HasSuffix(d.Pos.Filename, "staleallow.go") || d.Pos.Line != 21 {
		t.Errorf("stale directive reported at %s:%d, want staleallow.go:21", d.Pos.Filename, d.Pos.Line)
	}
}

// TestSeededViolationFailsGate builds a throwaway module around each
// seeded determinism source and checks the suite flags it — the
// end-to-end guarantee that the CI gate can actually fail. The last case
// pins the one command exemption: package main may set its own
// parallelism.
func TestSeededViolationFailsGate(t *testing.T) {
	cases := []struct {
		name     string
		pkg      string // package clause name
		imports  string
		body     string // body of func F
		analyzer string // "" when the module must stay clean
		want     string // substring of the one expected message
	}{
		{"wall-clock", "seeded", `"time"`, "_ = time.Now()", "nowallclock", "time.Now"},
		{"environment", "seeded", `"os"`, `_ = os.Getenv("SIM_KNOB")`, "nowallclock", "os.Getenv"},
		{"global-rand", "seeded", `"math/rand/v2"`, "_ = rand.Float64()", "seedflow", "rand.Float64"},
		{"rand-New", "seeded", `"math/rand/v2"`, "_ = rand.New(nil)", "seedflow", "rand.New"},
		{"map-range-print", "seeded", `"fmt"`, "for k := range map[string]int{} {\n\t\tfmt.Println(k)\n\t}", "maporder", "fmt.Println inside a map range"},
		{"gomaxprocs-library", "seeded", `"runtime"`, "_ = runtime.GOMAXPROCS(0)", "nowallclock", "runtime.GOMAXPROCS"},
		{"gomaxprocs-command", "main", `"runtime"`, "_ = runtime.GOMAXPROCS(1)", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := "// Package " + tc.pkg + " holds one seeded source.\n" +
				"package " + tc.pkg + "\n\nimport " + tc.imports + "\n\n" +
				"// F carries the source.\nfunc F() {\n\t" + tc.body + "\n}\n"
			if tc.pkg == "main" {
				src += "\nfunc main() { F() }\n"
			}
			files := map[string]string{
				"go.mod":    "module seeded\n\ngo 1.22\n",
				"seeded.go": src,
			}
			for name, content := range files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			pkgs, err := Load(dir)
			if err != nil {
				t.Fatalf("loading seeded module: %v", err)
			}
			diags := Run(pkgs, Analyzers())
			if tc.analyzer == "" {
				if len(diags) != 0 {
					t.Fatalf("got %v, want a clean module", diags)
				}
				return
			}
			if len(diags) != 1 || diags[0].Analyzer != tc.analyzer ||
				!strings.Contains(diags[0].Message, tc.want) {
				t.Fatalf("got %v, want exactly one %s diagnostic mentioning %s", diags, tc.analyzer, tc.want)
			}
		})
	}
}

// TestSimvetExitsClean is the meta-check: the checked-in tree must stay
// simvet-clean so the CI gate only ever fails on newly introduced
// violations.
func TestSimvetExitsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the simvet binary")
	}
	cmd := exec.Command("go", "run", "./cmd/simvet", "./...")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/simvet ./... = %v, want exit 0; output:\n%s", err, out)
	}
}

// TestDiagnosticString pins the one-line report format the CLI prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "floateq",
		Pos:      token.Position{Filename: "a/b.go", Line: 3, Column: 7},
		Message:  "exact comparison",
	}
	want := fmt.Sprintf("%s: exact comparison (floateq)", d.Pos)
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
