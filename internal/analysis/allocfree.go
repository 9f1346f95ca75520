package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Allocfree enforces the //sim:noalloc contract: a function so annotated
// — and every module function it statically reaches — must not allocate
// on its steady-state path. The kernel's event heap and the host-index
// query paths carry this annotation because the 0 allocs/op results of
// BENCH_3/BENCH_4 are part of the reproduction's performance claims;
// this analyzer turns those benchmark numbers into a compile-time-checked
// property instead of a regression a benchmark run may or may not catch.
//
// Flagged constructs, in both the annotated function and its reachable
// module callees:
//
//   - make and new
//   - taking the address of a composite literal (&T{...}), which
//     allocates whenever the value escapes
//   - storing into a map (m[k] = v, m[k] += v, m[k]++), which allocates
//     when the key is new or the map grows
//   - append (amortized growth allocates; append into a pre-grown
//     recycled backing array is the one sanctioned pattern and must be
//     suppressed per-site with //lint:allow allocfree <reason>, which
//     documents why the capacity argument holds)
//   - func literals that capture enclosing variables (closure allocation;
//     capture-free literals compile to static funcs and are fine)
//   - string concatenation with + (builds a new string)
//   - interface boxing: assigning or passing a concrete non-pointer value
//     where an interface is expected (fmt.Errorf("%v", x) and friends)
//
// panic call arguments are exempt: a panic path is by definition not the
// steady state, and the hot paths here panic with formatted messages on
// contract violations (invalid event IDs, wrong generation).
//
// The walk follows static call edges only (see callgraph.go), because
// the hot paths are deliberately written devirtualized; an interface
// call inside a noalloc region would itself be a design smell worth a
// finding, which boxing detection surfaces.
var Allocfree = &Analyzer{
	Name: "allocfree",
	Doc: "//sim:noalloc functions and their static callees must not " +
		"allocate: no make/new/&T{}/map-store/append/closure-capture/" +
		"interface-boxing/string-concat outside suppressed, documented sites",
	RunModule: runAllocfree,
}

func runAllocfree(pass *ModulePass) {
	g := pass.Graph

	var roots []*CGNode
	for _, n := range g.Nodes() {
		if n.NoAlloc {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}

	order, parent := g.Walk(roots)

	for _, n := range order {
		if n.Decl.Body == nil {
			continue
		}
		checkAllocs(pass, g, n, parent)
	}
}

// checkAllocs reports allocating constructs in one function body.
func checkAllocs(pass *ModulePass, g *CallGraph, n *CGNode, parent map[*CGNode]*CGNode) {
	info := n.Pkg.Info
	where := g.Display(n.Key)
	via := ""
	if parent[n] != nil {
		via = " (noalloc via " + g.pathVia(parent, n) + ")"
	}

	// panicArgs collects the argument subtrees of panic calls, which are
	// exempt from every allocation rule.
	panicArgs := make(map[ast.Node]bool)
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				for _, arg := range call.Args {
					panicArgs[arg] = true
				}
			}
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for arg := range panicArgs {
			if arg.Pos() <= pos && pos <= arg.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			id, ok := ast.Unparen(node.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := info.Uses[id].(*types.Builtin)
			if !ok {
				return true
			}
			switch b.Name() {
			case "make", "new", "append":
				if inPanic(node.Pos()) {
					return true
				}
				pass.Reportf(node.Pos(), "%s calls %s inside a //sim:noalloc region%s", where, b.Name(), via)
			}
		case *ast.UnaryExpr:
			if _, lit := ast.Unparen(node.X).(*ast.CompositeLit); lit && node.Op == token.AND && !inPanic(node.Pos()) {
				pass.Reportf(node.Pos(), "%s takes the address of a composite literal inside a //sim:noalloc region%s", where, via)
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if isMapIndex(info, lhs) {
					pass.Reportf(lhs.Pos(), "%s stores into a map inside a //sim:noalloc region%s", where, via)
				}
			}
		case *ast.IncDecStmt:
			if isMapIndex(info, node.X) {
				pass.Reportf(node.X.Pos(), "%s stores into a map inside a //sim:noalloc region%s", where, via)
			}
		case *ast.FuncLit:
			if inPanic(node.Pos()) {
				return false
			}
			if captures(node, info) {
				pass.Reportf(node.Pos(), "%s builds a capturing closure inside a //sim:noalloc region%s (a capture-free func literal would be fine)", where, via)
			}
			// Descend regardless: the literal runs as part of this
			// function's hot path, so its body obeys the same rules.
		case *ast.BinaryExpr:
			if node.Op != token.ADD || inPanic(node.Pos()) {
				return true
			}
			if tv, ok := info.Types[node]; ok {
				if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
					pass.Reportf(node.Pos(), "%s concatenates strings inside a //sim:noalloc region%s", where, via)
				}
			}
		}
		return true
	})

	checkBoxing(pass, n, where, via, inPanic)
}

// isMapIndex reports whether e indexes a map: as an assignment target, a
// store.
func isMapIndex(info *types.Info, e ast.Expr) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// captures reports whether a func literal references any identifier
// declared outside the literal itself (a closure capture). References to
// package-level objects do not count: they need no closure environment.
func captures(lit *ast.FuncLit, info *types.Info) bool {
	captured := false
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj := info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil {
			return true
		}
		if p := v.Pkg(); p != nil && v.Parent() == p.Scope() {
			return true // package-level: needs no closure environment
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

// checkBoxing reports concrete non-pointer values converted to interface
// types: in arguments to calls whose parameter is an interface, and in
// explicit interface conversions. Pointer, interface-typed, and untyped
// nil operands do not box a copy of the value. Calls to fmt-style
// variadic ...any printers are where this bites in practice.
func checkBoxing(pass *ModulePass, n *CGNode, where, via string, inPanic func(token.Pos) bool) {
	info := n.Pkg.Info
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		var sig *types.Signature
		if tv, ok := info.Types[fun]; ok {
			sig, _ = tv.Type.Underlying().(*types.Signature)
		}
		if sig == nil {
			return true
		}
		for i, arg := range call.Args {
			if inPanic(arg.Pos()) {
				continue
			}
			var paramType types.Type
			switch {
			case sig.Variadic() && i >= sig.Params().Len()-1:
				last := sig.Params().At(sig.Params().Len() - 1).Type()
				if slice, ok := last.(*types.Slice); ok {
					paramType = slice.Elem()
				}
			case i < sig.Params().Len():
				paramType = sig.Params().At(i).Type()
			}
			if paramType == nil || !types.IsInterface(paramType) {
				continue
			}
			atv, ok := info.Types[arg]
			if !ok || atv.Type == nil {
				continue
			}
			if atv.IsNil() || types.IsInterface(atv.Type) {
				continue
			}
			if _, isPtr := atv.Type.Underlying().(*types.Pointer); isPtr {
				continue
			}
			pass.Reportf(arg.Pos(), "%s boxes a %s into interface %s inside a //sim:noalloc region%s",
				where, atv.Type.String(), paramType.String(), via)
		}
		return true
	})
}
