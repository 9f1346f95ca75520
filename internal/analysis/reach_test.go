package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyReach lists the internal/ declarations that no binary reaches
// but that tests of another package need as an oracle or an input, each
// with the tests that need it; the walk treats them as roots, so what
// they use needs no entry of its own. They stay in non-test files: Go
// forbids a package's in-package tests from importing a helper that
// imports the package itself, so queueing's own tests could not reach a
// queueing oracle kept in a test-only helper package. A key ending in
// ".*" names a whole package's exported API.
var testOnlyReach = map[string]string{
	"sita/internal/dist.Deterministic":    "queueing.TestMG1DeterministicVsExponential, policy.TestRoundRobinExactCycle, tags.TestAnalysisServiceMomentsSaneOnDeterministic",
	"sita/internal/dist.NewUniform":       "simtest.TestRandomPolicySlowdownMatchesMG1",
	"sita/internal/dist.NewH2Balanced":    "queueing.TestMG1WaitGrowsWithVariability, queueing.TestMGhApproachesMM1ScalingAtManyServers",
	"sita/internal/dist.NewEmpirical":     "queueing.TestSITAWithEmpiricalDistribution",
	"sita/internal/queueing.NewMM1":       "simtest.TestRandomPolicyMatchesMM1",
	"sita/internal/queueing.MG1PS":        "server.TestPSMatchesMG1PSFormula",
	"sita/internal/stats.Autocorrelation": "trace.TestBurstSizeCorrelationKnob",
	"sita/internal/server.New":            "the engine tests of server_test.go and invariants_test.go",
	"sita/internal/server.NewPS":          "the PS engine tests of ps_test.go",
	"sita/internal/runner.Map":            "streamcache.TestConcurrentFanOut",
	"sita/internal/runner.CellSeed":       "runner.TestCellSeedDistinct, runner.TestSeedStability",
	"sita/internal/experiment.ClearMemos": "experiment.TestClearMemosSimulatesAgain and the sweep benchmarks, which time cold runs",
	"sita/internal/simtest.*":             "the property harness; its own oracle, invariant and metamorphic tests drive it",
}

// TestNoUnreachedLibraryCode keeps the library from regrowing code that
// only its own tests call. It walks every reference from the module's
// roots — each package main (cmd/, examples/ and the bench module), the
// exported API of the root sita package, init functions and package-level
// vars — keeping every method of a reached type, so interface dispatch
// and fmt's Stringer calls count. Any top-level internal/ declaration the
// walk misses must be deleted or named in testOnlyReach.
func TestNoUnreachedLibraryCode(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// The bench module's path is sita/bench and it replaces sita with
	// the root, so from there "sita/..." names both modules' packages.
	pkgs, err := Load(filepath.Join(root, "bench"), "sita/...")
	if err != nil {
		t.Fatal(err)
	}
	g := newReachGraph()
	for _, p := range pkgs {
		g.add(p, p.Dir == root)
	}

	byBinaries := g.walk(nil)
	var extra []string
	for key := range testOnlyReach {
		pkg, whole := strings.CutSuffix(key, ".*")
		switch {
		case whole:
			n := len(extra)
			for k, d := range g.decls {
				if d.pkg == pkg && d.exported {
					extra = append(extra, k)
				}
			}
			if len(extra) == n {
				t.Errorf("testOnlyReach names package %s, which exports nothing", pkg)
			}
		case g.decls[key] == nil:
			t.Errorf("testOnlyReach names %s, which no longer exists", key)
		case byBinaries[key]:
			t.Errorf("testOnlyReach names %s, which a binary now reaches", key)
		default:
			extra = append(extra, key)
		}
	}
	reached := g.walk(extra)

	var dead []string
	for key, d := range g.decls {
		if !reached[key] && strings.Contains(d.pkg, "/internal/") {
			dead = append(dead, d.pos+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no binary and no exported sita API; delete it, or add it to testOnlyReach with the tests that need it", d)
	}
}

// reachDecl is one top-level declaration: a function, a method, a type,
// a constant or a package-level var.
type reachDecl struct {
	pkg      string
	pos      string
	exported bool
	deps     []string
}

type reachGraph struct {
	decls   map[string]*reachDecl
	methods map[string][]string // type key -> its method keys
	roots   []string
}

func newReachGraph() *reachGraph {
	return &reachGraph{decls: map[string]*reachDecl{}, methods: map[string][]string{}}
}

// add records p's declarations. api marks the root sita package, whose
// exported names are roots.
func (g *reachGraph) add(p *Package, api bool) {
	decl := func(key string, name *ast.Ident, n ast.Node) *reachDecl {
		d := &reachDecl{pkg: p.ImportPath, pos: relPos(p, n), exported: name.IsExported(), deps: usesIn(p.Info, n)}
		if key != "" {
			g.decls[key] = d
		}
		return d
	}
	for _, f := range p.Files {
		for _, n := range f.Decls {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil && n.Name.Name == "init" {
					g.roots = append(g.roots, decl("", n.Name, n).deps...)
					continue
				}
				key := reachKey(p.Info.Defs[n.Name])
				decl(key, n.Name, n)
				if n.Recv != nil {
					typ := key[:strings.LastIndexByte(key, '.')]
					g.methods[typ] = append(g.methods[typ], key)
				} else if p.Name == "main" && n.Name.Name == "main" || api && n.Name.IsExported() {
					g.roots = append(g.roots, key)
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						key := reachKey(p.Info.Defs[id])
						if key == "" {
							continue
						}
						decl(key, id, spec)
						if n.Tok == token.VAR || api && id.IsExported() {
							g.roots = append(g.roots, key)
						}
					}
				}
			}
		}
	}
}

// walk returns the keys reachable from the roots and extra.
func (g *reachGraph) walk(extra []string) map[string]bool {
	reached := map[string]bool{}
	stack := append(append([]string(nil), g.roots...), extra...)
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[key] {
			continue
		}
		reached[key] = true
		if d := g.decls[key]; d != nil {
			stack = append(stack, d.deps...)
		}
		stack = append(stack, g.methods[key]...)
	}
	return reached
}

// usesIn returns the keys of the module-level objects n refers to.
func usesIn(info *types.Info, n ast.Node) []string {
	var keys []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if key := reachKey(info.Uses[id]); key != "" {
				keys = append(keys, key)
			}
		}
		return true
	})
	return keys
}

// reachKey names a package-level object ("pkg.Name") or a method
// ("pkg.Type.Method") the same way whether it was type-checked from
// source or imported from export data, so references cross package and
// module boundaries. Other objects (locals, fields, universe names) have
// no key.
func reachKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		obj = fn
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			named, ok := typ.(*types.Named)
			if !ok {
				return ""
			}
			return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Name() == "_" || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// relPos formats n's position relative to the import path's last
// element, e.g. "dist/pareto.go:42".
func relPos(p *Package, n ast.Node) string {
	pos := p.Fset.Position(n.Pos())
	return filepath.Base(p.Dir) + "/" + filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}
