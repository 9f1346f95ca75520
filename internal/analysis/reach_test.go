package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyReach lists the internal/ declarations that no binary reaches
// but that tests of another package need as an oracle or an input, each
// with the tests that need it; the walk treats them as roots, so what
// they use needs no entry of its own. They stay in non-test files: Go
// forbids a package's in-package tests from importing a helper that
// imports the package itself, so queueing's own tests could not reach a
// queueing oracle kept in a test-only helper package.
//
// A key names a function, a method, a var or a type; a type entry roots
// the type and every method in its method set. A key "pkg.Iface.Method"
// naming an interface method counts as a call through that interface,
// so it roots the method of every reached type that implements it. A
// key ending in ".*" names a whole package's exported API.
var testOnlyReach = map[string]string{
	"sita/internal/dist.Deterministic":       "queueing.TestMG1DeterministicVsExponential, policy.TestRoundRobinExactCycle, tags.TestAnalysisServiceMomentsSaneOnDeterministic",
	"sita/internal/dist.NewUniform":          "simtest.TestRandomPolicySlowdownMatchesMG1",
	"sita/internal/dist.NewH2Balanced":       "queueing.TestMG1WaitGrowsWithVariability, queueing.TestMGhApproachesMM1ScalingAtManyServers",
	"sita/internal/dist.NewEmpirical":        "queueing.TestSITAWithEmpiricalDistribution",
	"sita/internal/dist.Empirical.Len":       "dist.TestEmpirical",
	"sita/internal/queueing.NewMM1":          "simtest.TestRandomPolicyMatchesMM1",
	"sita/internal/queueing.MM1":             "queueing.TestMM1MatchesMG1Exponential, queueing.TestMM1Identities, queueing.TestMMhOneServerMatchesMM1Direct, simtest.TestRandomPolicyMatchesMM1",
	"sita/internal/queueing.MG1PS":           "queueing.TestMG1PS, queueing.TestMG1PSInsensitivity",
	"sita/internal/server.View.NumJobs":      "policy.TestIndexedPoliciesMatchScanReference (ScanShortestQueue), server.TestWorkLeftAndNumJobsViews, server.TestWorkLeftAfterDequeue, server.TestPSViewMethods",
	"sita/internal/server.WorkView.WorkLeft": "policy.TestIndexedPoliciesMatchScanReference (the LWL and grouped-SITA scans), server.TestDirectGoldenReplay and server.TestKernelGoldenRecords (goldenLWL), server.TestWorkLeftAndNumJobsViews",
	"sita/internal/server.WorkView.Idle":     "policy.TestIndexedPoliciesMatchScanReference (ScanCentralQueue), server.TestDirectEngineParityInPackage (idleFirst), server.TestCentralQueueDrainsIdleHosts, server.TestPSViewMethods",
	"sita/internal/stats.Autocorrelation":    "trace.TestBurstSizeCorrelationKnob",
	"sita/internal/runner.Map":               "streamcache.TestConcurrentFanOut",
	"sita/internal/runner.CellSeed":          "runner.TestCellSeedDistinct, runner.TestSeedStability",
	"sita/internal/experiment.ClearMemos":    "experiment.TestClearMemosSimulatesAgain and the sweep benchmarks, which time cold runs",
	"sita/internal/simtest.*":                "the property harness; its own oracle, invariant and metamorphic tests drive it",
}

// TestNoUnreachedLibraryCode keeps the library from regrowing code that
// only its own tests call. It walks every reference from the module's
// roots — each package main (cmd/, examples/ and the bench module), the
// exported API of the root sita package, init functions and package-level
// vars — method by method (see reachGraph for the rules). Any top-level
// internal/ declaration or method the walk misses must be deleted or
// named in testOnlyReach.
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
	g := newReachGraph(pkgs, "sita")

	byBinaries := g.walk(nil)
	entries := make([]string, 0, len(testOnlyReach))
	for key := range testOnlyReach {
		entries = append(entries, key)
	}
	sort.Strings(entries)
	var extra []string
	for _, key := range entries {
		keys := g.expand(key)
		if keys == nil {
			t.Errorf("testOnlyReach names %s, which no longer exists or exports nothing", key)
			continue
		}
		if !g.addsTo(byBinaries, keys) {
			t.Errorf("testOnlyReach names %s, which adds nothing to what the binaries reach", key)
		}
		extra = append(extra, keys...)
	}
	for _, d := range g.unreached(g.walk(extra)) {
		t.Errorf("%s: %s is reached by no binary and no exported sita API; delete it, or add it to testOnlyReach with the tests that need it", d.pos, d.key)
	}
}

// TestReachRules pins each rule of the walk on the fixture module under
// testdata/src/reach: every declaration the walk must report carries a
// want comment, and every other one must be reached.
func TestReachRules(t *testing.T) {
	const base = "sita/internal/analysis/testdata/src/reach"
	pkgs, err := Load(".", "./testdata/src/reach/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("got %d fixture packages, want 3 (api, cmd, lib)", len(pkgs))
	}
	var files []*ast.File
	for _, p := range pkgs {
		files = append(files, p.Files...)
	}
	wants := parseWants(t, pkgs[0].Fset, files)
	g := newReachGraph(pkgs, base+"/api")
	for _, d := range g.unreached(g.walk(g.expand(base + "/lib.Oracle.Probe"))) {
		k := wantKey{d.pos.Filename, d.pos.Line}
		if len(wants[k]) == 0 || !wants[k][0].MatchString(d.key) {
			t.Errorf("%s: %s is reported, want it reached", d.pos, d.key)
			continue
		}
		delete(wants, k)
	}
	for k, res := range wants {
		t.Errorf("%s:%d: %s is reached, want it reported", k.file, k.line, res[0])
	}
}

// reachDecl is one top-level declaration: a function, a method, a type,
// a constant or a package-level var.
type reachDecl struct {
	pkg      string
	pos      token.Position
	exported bool
	deps     []string
}

// reachMethod is one entry of a type's method set: the method's key, its
// name, and the call key an interface call to a method of that name and
// signature walks to (see callKey).
type reachMethod struct {
	key, name, call string
	sig             types.Type
}

// reachGraph is the module's reference graph. Nodes are keyed by
// reachKey, plus one node per interface method name and signature that
// code calls (callKey). A method is reached when
//   - reached code names it in a selector or a method value;
//   - reached code calls an interface method (a type parameter's
//     constraint included) with its name and signature, and its type is
//     reached;
//   - it is String, Error or Format, and its type is reached, since fmt
//     calls them;
//   - it is exported, in the method set of a type the API package
//     exposes: a type it declares or aliases, or the type of one of its
//     exported functions, vars, fields or exported methods, transitively.
//     The methods of an exposed interface count as called.
type reachGraph struct {
	decls   map[string]*reachDecl
	methods map[string][]reachMethod // type key -> its method set, promoted methods included
	impls   map[string][]string      // call key -> the type keys whose method sets answer it
	ifaces  map[string]string        // "pkg.Iface.Method" -> its call key
	roots   []string
}

// newReachGraph records pkgs' declarations. api is the import path of
// the package whose exported API is a root.
func newReachGraph(pkgs []*Package, api string) *reachGraph {
	g := &reachGraph{
		decls:   map[string]*reachDecl{},
		methods: map[string][]reachMethod{},
		impls:   map[string][]string{},
		ifaces:  map[string]string{},
	}
	var named []*types.Named
	var apiPkg *types.Package
	for _, p := range pkgs {
		if p.ImportPath == api {
			apiPkg = p.Types
		}
		named = append(named, g.add(p, p.ImportPath == api)...)
	}
	for _, t := range named {
		typ := reachKey(t.Obj())
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := range iface.NumMethods() {
				m := iface.Method(i)
				g.ifaces[typ+"."+m.Name()] = callKey(m)
			}
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(t))
		for i := range mset.Len() {
			m := mset.At(i).Obj().(*types.Func)
			if key := reachKey(m); key != "" {
				call := callKey(m)
				g.methods[typ] = append(g.methods[typ], reachMethod{key, m.Name(), call, m.Type()})
				g.impls[call] = append(g.impls[call], typ)
			}
		}
	}
	if apiPkg != nil {
		g.expose(apiPkg)
	}
	return g
}

// add records p's declarations and returns its named types. api marks
// the package whose exported names are roots.
func (g *reachGraph) add(p *Package, api bool) []*types.Named {
	var named []*types.Named
	decl := func(key string, name *ast.Ident, n ast.Node) *reachDecl {
		d := &reachDecl{pkg: p.ImportPath, pos: p.Fset.Position(n.Pos()), exported: name.IsExported(), deps: usesIn(p.Info, n)}
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
				if n.Recv == nil && (p.Name == "main" && n.Name.Name == "main" || api && n.Name.IsExported()) {
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
						obj := p.Info.Defs[id]
						key := reachKey(obj)
						if key == "" {
							continue
						}
						decl(key, id, spec)
						if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
							named = append(named, tn.Type().(*types.Named))
						}
						if n.Tok == token.VAR || api && id.IsExported() {
							g.roots = append(g.roots, key)
						}
					}
				}
			}
		}
	}
	return named
}

// expose roots the exported methods of every type pkg's exported API
// exposes.
func (g *reachGraph) expose(pkg *types.Package) {
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visitTuple := func(t *types.Tuple) {
		for i := range t.Len() {
			visit(t.At(i).Type())
		}
	}
	visit = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			typ := reachKey(t.Obj())
			if g.decls[typ] == nil {
				return // outside the loaded packages
			}
			for i := range t.TypeArgs().Len() {
				visit(t.TypeArgs().At(i))
			}
			for _, m := range g.methods[typ] {
				if token.IsExported(m.name) {
					g.roots = append(g.roots, m.key)
					visit(m.sig)
				}
			}
			visit(t.Underlying())
		case *types.Interface:
			for i := range t.NumMethods() {
				if m := t.Method(i); m.Exported() {
					g.roots = append(g.roots, callKey(m))
					visit(m.Type())
				}
			}
		case *types.Struct:
			for i := range t.NumFields() {
				if f := t.Field(i); f.Exported() {
					visit(f.Type())
				}
			}
		case *types.Signature:
			visitTuple(t.Params())
			visitTuple(t.Results())
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			visit(obj.Type())
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
		// key as a type: the methods that calls already made answer.
		for _, m := range g.methods[key] {
			if reached[m.call] || m.name == "String" || m.name == "Error" || m.name == "Format" {
				stack = append(stack, m.key)
			}
		}
		// key as an interface call: the methods of reached types it
		// dispatches to.
		for _, typ := range g.impls[key] {
			if !reached[typ] {
				continue
			}
			for _, m := range g.methods[typ] {
				if m.call == key {
					stack = append(stack, m.key)
				}
			}
		}
	}
	return reached
}

// expand returns the keys a testOnlyReach entry roots, or nil if it
// names nothing.
func (g *reachGraph) expand(entry string) []string {
	if pkg, whole := strings.CutSuffix(entry, ".*"); whole {
		var keys []string
		for k, d := range g.decls {
			if d.pkg == pkg && d.exported {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		return keys
	}
	if call, ok := g.ifaces[entry]; ok {
		return []string{call, entry[:strings.LastIndexByte(entry, '.')]}
	}
	if g.decls[entry] == nil {
		return nil
	}
	keys := []string{entry}
	for _, m := range g.methods[entry] {
		keys = append(keys, m.key)
	}
	return keys
}

// addsTo reports whether rooting keys reaches anything beyond reached.
func (g *reachGraph) addsTo(reached map[string]bool, keys []string) bool {
	for key := range g.walk(keys) {
		if !reached[key] && g.decls[key] != nil {
			return true
		}
	}
	return false
}

// reachFinding is one internal/ declaration a walk missed.
type reachFinding struct {
	key string
	pos token.Position
}

// unreached returns the internal/ declarations reached misses, sorted by
// position.
func (g *reachGraph) unreached(reached map[string]bool) []reachFinding {
	var out []reachFinding
	for key, d := range g.decls {
		if !reached[key] && strings.Contains(d.pkg, "/internal/") {
			out = append(out, reachFinding{key, d.pos})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// usesIn returns the keys of the module-level objects n refers to; a
// method selected through an interface or a type parameter yields the
// call key of its name and signature instead.
func usesIn(info *types.Info, n ast.Node) []string {
	var keys []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					keys = append(keys, callKey(fn))
					return true
				}
			}
			if key := reachKey(obj); key != "" {
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

// callKey names what a call to method fn through an interface can reach:
// every method of that name and signature, e.g. "call Mean() float64".
// A reachKey holds no space, so the two never collide.
func callKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", types.Unalias(t.At(i).Type()))
		}
		return types.NewTuple(vars...)
	}
	bare := types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic())
	return "call " + fn.Name() + strings.TrimPrefix(types.TypeString(bare, nil), "func")
}
