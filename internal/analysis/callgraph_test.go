package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtureGraph loads one testdata package and builds its call graph,
// failing the test on malformed //sim: directives unless wantDiags.
func loadFixtureGraph(t *testing.T, name string) *CallGraph {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	g, diags := BuildCallGraph(pkgs)
	if len(diags) != 0 {
		t.Fatalf("fixture %s: unexpected directive diagnostics: %v", name, diags)
	}
	return g
}

// byDisplay finds the unique node with the given display key.
func byDisplay(t *testing.T, g *CallGraph, display string) *CGNode {
	t.Helper()
	var found *CGNode
	for _, n := range g.Nodes() {
		if g.Display(n.Key) == display {
			if found != nil {
				t.Fatalf("display key %q is ambiguous", display)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node with display key %q", display)
	}
	return found
}

// reachSet walks from one root and returns the display keys of every
// reached node.
func reachSet(g *CallGraph, root *CGNode) map[string]bool {
	order, _ := g.Walk([]*CGNode{root})
	set := make(map[string]bool, len(order))
	for _, n := range order {
		set[g.Display(n.Key)] = true
	}
	return set
}

// TestCallGraphInterfaceDispatch pins that an interface call is not an
// edge: the walks check code a function runs itself.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := loadFixtureGraph(t, "callgraph")
	reach := reachSet(g, byDisplay(t, g, "callgraph.drive"))

	for _, want := range []string{
		"callgraph.drive",
		"callgraph.ping", // static call
		"callgraph.pong", // through ping
	} {
		if !reach[want] {
			t.Errorf("drive should reach %s; reached %v", want, keys(reach))
		}
	}
	for _, bad := range []string{
		"(*callgraph.roundRobin).pick",  // interface candidate
		"(*callgraph.leastLoaded).pick", // interface candidate
		"callgraph.argmin",              // only through leastLoaded.pick
		"callgraph.observer",            // value reference
		"callgraph.isolated",
	} {
		if reach[bad] {
			t.Errorf("drive must not reach %s", bad)
		}
	}
}

func TestCallGraphMutualRecursionTerminates(t *testing.T) {
	g := loadFixtureGraph(t, "callgraph")
	reach := reachSet(g, byDisplay(t, g, "callgraph.viaClosure"))
	// The closure's call belongs to viaClosure; the ping/pong cycle is
	// entered once and the walk terminates.
	for _, want := range []string{"callgraph.viaClosure", "callgraph.ping", "callgraph.pong"} {
		if !reach[want] {
			t.Errorf("viaClosure should reach %s; reached %v", want, keys(reach))
		}
	}
}

func TestCallGraphDynamicCallsHaveNoCallEdge(t *testing.T) {
	g := loadFixtureGraph(t, "callgraph")
	dyn := byDisplay(t, g, "callgraph.dynamic")
	if len(dyn.Out) != 0 {
		var out []string
		for _, to := range dyn.Out {
			out = append(out, g.Display(to.Key))
		}
		t.Errorf("dynamic's func-value call must produce no call edge, got %v", out)
	}
}

func TestCallGraphIsolatedNode(t *testing.T) {
	g := loadFixtureGraph(t, "callgraph")
	iso := byDisplay(t, g, "callgraph.isolated")
	if len(iso.Out) != 0 {
		t.Errorf("isolated should have no out edges, got %d", len(iso.Out))
	}
}

// TestSimDirectiveValidation checks that malformed //sim: directives are
// reported rather than silently dropped.
func TestSimDirectiveValidation(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module simdirectives\n\ngo 1.22\n",
		"d.go": "// Package d carries malformed contract directives.\n" +
			"package d\n\n" +
			"// A is fine.\n" +
			"//sim:noalloc\n" +
			"func A() {}\n\n" +
			"// B mistypes the verb.\n" +
			"//sim:noallocs\n" +
			"func B() {}\n\n" +
			"// D has no verb at all.\n" +
			"//sim:\n" +
			"func D() {}\n\n" +
			"// E carries the retired read-only verb.\n" +
			"//sim:readonly jobs\n" +
			"func E() {}\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir)
	if err != nil {
		t.Fatalf("loading directive module: %v", err)
	}
	g, diags := BuildCallGraph(pkgs)
	if len(diags) != 3 {
		t.Fatalf("got %d directive diagnostics, want 3: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "lint" {
			t.Errorf("directive diagnostics report as %q, want lint", d.Analyzer)
		}
	}
	joined := ""
	for _, d := range diags {
		joined += d.Message + "\n"
	}
	for _, want := range []string{"noallocs", "need a verb", "sim:readonly is not a contract directive"} {
		if !strings.Contains(joined, want) {
			t.Errorf("directive diagnostics %q missing %q", joined, want)
		}
	}
	// The well-formed directive parsed.
	if a := g.nodes["simdirectives.A"]; a == nil || !a.NoAlloc {
		t.Errorf("well-formed //sim:noalloc on A not parsed: %+v", a)
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

// keys flattens a reach set for failure messages.
func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}
