package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module static call graph the interprocedural
// analyzer (allocfree) runs on. Nodes are the named functions and methods
// of the loaded packages; a function literal is attributed to the named
// declaration that lexically contains it, so a closure's calls count as
// its enclosing function's calls. An edge is a statically resolved call to
// another module function: a package function, a method on a concrete
// receiver, or a qualified pkg.Func.
//
// Calls through interfaces and func-typed values, functions referenced as
// values, and calls inside a panic's arguments resolve to no edge. The
// contract walked over the graph is about code a function runs itself in
// steady state: the simulation hot paths are written devirtualized. The determinism contract does not rest on the graph at
// all: the file-local analyzers (nowallclock, seedflow, maporder) run over
// every function, so a forbidden source is flagged where it is written,
// whatever path reaches it.
//
// # Annotation grammar
//
// A contract is declared as a //sim: directive inside a function's doc
// comment. There is one verb:
//
//	//sim:noalloc          allocfree contract: this function and its
//	                       static callees must not allocate
//
// A malformed directive (unknown verb, no verb) is reported under the
// pseudo-analyzer "lint", like a malformed //lint:allow, so a typo cannot
// silently drop a contract.

// SimPrefix is the comment prefix of a //sim: contract directive.
const SimPrefix = "//sim:"

// CGNode is one function or method of the loaded packages.
type CGNode struct {
	Key  string        // types.Func.FullName(), e.g. "(*sita/internal/sim.Engine).Run"
	Pkg  *Package      // defining package
	Decl *ast.FuncDecl // declaration
	Out  []*CGNode     // static callees, deduplicated, sorted by Key

	NoAlloc bool // the doc comment carries //sim:noalloc
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	nodes map[string]*CGNode
	keys  []string // sorted node keys

	// pkgPaths maps target import paths to package names, for display.
	pkgPaths map[string]string
}

// Nodes returns every node in sorted key order.
func (g *CallGraph) Nodes() []*CGNode {
	out := make([]*CGNode, len(g.keys))
	for i, k := range g.keys {
		out[i] = g.nodes[k]
	}
	return out
}

// Display shortens a node key for diagnostics: target package import
// paths collapse to their package name, so
// "(*sita/internal/sim.Engine).Run" reads "(*sim.Engine).Run".
func (g *CallGraph) Display(key string) string {
	for _, p := range g.displayOrder() {
		key = strings.ReplaceAll(key, p+".", g.pkgPaths[p]+".")
	}
	return key
}

// displayOrder returns target import paths longest-first so nested paths
// rewrite before their prefixes.
func (g *CallGraph) displayOrder() []string {
	paths := make([]string, 0, len(g.pkgPaths))
	for p := range g.pkgPaths {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		if len(paths[i]) != len(paths[j]) {
			return len(paths[i]) > len(paths[j])
		}
		return paths[i] < paths[j]
	})
	return paths
}

// Walk runs a breadth-first traversal over static call edges from roots
// and returns the visit order plus, for every reached node, the node it
// was first discovered from (roots map to nil). Roots are visited in
// sorted key order, so discovery parents — and therefore the paths
// diagnostics print — are deterministic.
func (g *CallGraph) Walk(roots []*CGNode) (order []*CGNode, parent map[*CGNode]*CGNode) {
	parent = make(map[*CGNode]*CGNode)
	queue := make([]*CGNode, 0, len(roots))
	sorted := append([]*CGNode(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for _, r := range sorted {
		if _, seen := parent[r]; seen {
			continue
		}
		parent[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, to := range n.Out {
			if _, seen := parent[to]; seen {
				continue
			}
			parent[to] = n
			queue = append(queue, to)
		}
	}
	return order, parent
}

// pathVia renders the discovery chain root -> ... -> n as a compact
// "a -> b -> c" fragment for diagnostics, eliding the middle of long
// chains.
func (g *CallGraph) pathVia(parent map[*CGNode]*CGNode, n *CGNode) string {
	var p []string
	for at := n; at != nil; at = parent[at] {
		p = append([]string{g.Display(at.Key)}, p...)
	}
	if len(p) > 5 {
		p = append(append([]string{}, p[:2]...), append([]string{"..."}, p[len(p)-2:]...)...)
	}
	return strings.Join(p, " -> ")
}

// BuildCallGraph builds the module call graph over the loaded packages and
// returns it along with diagnostics for malformed //sim: directives.
func BuildCallGraph(pkgs []*Package) (*CallGraph, []Diagnostic) {
	g := &CallGraph{
		nodes:    make(map[string]*CGNode),
		pkgPaths: make(map[string]string),
	}
	var diags []Diagnostic

	// Pass 1: one node per named declaration, with parsed annotations.
	var decls []*CGNode
	for _, pkg := range pkgs {
		g.pkgPaths[pkg.ImportPath] = pkg.Name
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				key := obj.FullName()
				for i := 2; g.nodes[key] != nil; i++ { // multiple init funcs
					key = fmt.Sprintf("%s#%d", obj.FullName(), i)
				}
				n := &CGNode{Key: key, Pkg: pkg, Decl: fn}
				parseSimDirectives(pkg, fn, n, &diags)
				g.nodes[key] = n
				decls = append(decls, n)
			}
		}
	}

	// Pass 2: static call edges per declaration, now that every callee
	// has its node.
	for _, n := range decls {
		collectEdges(g, n)
	}

	g.keys = make([]string, 0, len(g.nodes))
	for k := range g.nodes {
		g.keys = append(g.keys, k)
	}
	sort.Strings(g.keys)
	return g, diags
}

// parseSimDirectives reads //sim: directives from the declaration's doc
// comment into the node, reporting malformed ones.
func parseSimDirectives(pkg *Package, fn *ast.FuncDecl, n *CGNode, diags *[]Diagnostic) {
	if fn.Doc == nil {
		return
	}
	bad := func(pos token.Pos, format string, args ...any) {
		*diags = append(*diags, Diagnostic{
			Analyzer: "lint",
			Pos:      pkg.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, c := range fn.Doc.List {
		if !strings.HasPrefix(c.Text, SimPrefix) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(c.Text, SimPrefix))
		if len(fields) == 0 {
			bad(c.Pos(), "malformed %s directive: need a verb (noalloc)", SimPrefix)
			continue
		}
		if fields[0] != "noalloc" {
			bad(c.Pos(), "%s%s is not a contract directive (want noalloc)", SimPrefix, fields[0])
			continue
		}
		n.NoAlloc = true
	}
}

// collectEdges scans one declaration (closures included) for statically
// resolved calls to module functions and sets n.Out.
func collectEdges(g *CallGraph, n *CGNode) {
	info := n.Pkg.Info
	callee := func(fun ast.Expr) *types.Func {
		switch e := fun.(type) {
		case *ast.Ident:
			fn, _ := info.Uses[e].(*types.Func)
			return fn
		case *ast.SelectorExpr:
			sel, ok := info.Selections[e]
			if !ok { // qualified identifier pkg.Func
				fn, _ := info.Uses[e.Sel].(*types.Func)
				return fn
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil // a func-typed field
			}
			if sig, ok := m.Type().(*types.Signature); !ok || sig.Recv() == nil || types.IsInterface(sig.Recv().Type()) {
				return nil // interface dispatch
			}
			return m
		}
		return nil
	}
	seen := make(map[*CGNode]bool)
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				// A panic path is not steady state: allocfree exempts the
				// arguments, and so the calls that build them.
				return false
			}
		}
		fn := callee(ast.Unparen(call.Fun))
		if fn == nil {
			return true
		}
		// Generic instantiations share their origin's node; callees
		// outside the loaded packages have none.
		if to := g.nodes[fn.Origin().FullName()]; to != nil && !seen[to] {
			seen[to] = true
			n.Out = append(n.Out, to)
		}
		return true
	})
	sort.Slice(n.Out, func(i, j int) bool { return n.Out[i].Key < n.Out[j].Key })
}
