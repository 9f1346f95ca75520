package analysis

import (
	"go/ast"
	"go/types"
)

// Readonly enforces the //sim:readonly contract: a function so annotated
// — and every module function it statically reaches — must never mutate a
// shared job slice. The contract is what lets internal/streamcache hand
// one generated []workload.Job to every policy at a load point, copy-free
// and concurrently: server.Run, server.RunPS, and tags.Simulate all carry
// the annotation, so a write sneaking into their call trees would corrupt
// every sibling simulation sharing the stream — silently, since the
// corrupted stream is still a valid job list.
//
// Flagged constructs, in the annotated function and its reachable module
// callees:
//
//   - assignment or ++/-- through an index into a job slice
//     (jobs[i] = ..., jobs[i].Size = ..., jobs[i].ID++)
//   - append to a job slice (append can write into the caller's backing
//     array when spare capacity exists)
//   - copy with a job slice destination
//
// Writes into locally allocated job slices are exempt: a slice whose
// variable is created in the same function by make, a composite literal,
// or a var declaration without initializer (nil slice) aliases no caller
// memory — the copy-first idiom. (The simulation paths copy one job at a
// time instead: j := jobs[i] is a value, so writing j.ID is no slice
// write at all.) A job slice
// is any slice whose element type is named Job, so the rule tracks
// sim.Job and its workload.Job alias without importing either.
//
// The walk follows static call edges only, like allocfree: the simulation
// hot paths are deliberately devirtualized, and a job slice crossing an
// interface boundary would be a design smell on its own.
var Readonly = &Analyzer{
	Name: "readonly",
	Doc: "//sim:readonly functions and their static callees must not " +
		"mutate job slices: no element writes, appends, or copies into " +
		"non-local []Job — shared streams feed many concurrent runs",
	RunModule: runReadonly,
}

func runReadonly(pass *ModulePass) {
	g := pass.Graph

	var roots []*CGNode
	for _, n := range g.Nodes() {
		if n.ReadOnly {
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
		checkJobWrites(pass, g, n, parent)
	}
}

// isJobSlice reports whether t is a slice of a type named Job. Matching by
// element type name keeps the analyzer usable from fixtures (which cannot
// import the module's packages) while being exact in practice: the module
// has one Job type, sim.Job, which workload.Job aliases.
func isJobSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := types.Unalias(s.Elem()).(*types.Named)
	return ok && named.Obj().Name() == "Job"
}

// checkJobWrites reports job-slice mutations in one function body.
func checkJobWrites(pass *ModulePass, g *CallGraph, n *CGNode, parent map[*CGNode]*CGNode) {
	info := n.Pkg.Info
	where := g.Display(n.Key)
	via := ""
	if parent[n] != nil {
		via = " (readonly via " + g.pathVia(parent, n) + ")"
	}

	// Pass 1: collect locally allocated job-slice variables. A variable
	// whose value comes from make, a composite literal, or a nil var
	// declaration aliases no caller memory, so writing through it is the
	// sanctioned copy-first idiom. Rebinding such a
	// variable to caller memory later would evade the rule, so an
	// assignment from anything else removes the exemption.
	local := make(map[*types.Var]bool)
	varOf := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, _ := obj.(*types.Var)
		return v
	}
	isLocalAlloc := func(rhs ast.Expr) bool {
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.CallExpr:
			id, ok := ast.Unparen(rhs.Fun).(*ast.Ident)
			if !ok {
				return false
			}
			b, ok := info.Uses[id].(*types.Builtin)
			if !ok {
				return false
			}
			if b.Name() == "make" {
				return true
			}
			if b.Name() == "append" && len(rhs.Args) > 0 {
				// append result is local iff its base already was.
				if v := varOf(rhs.Args[0]); v != nil {
					return local[v]
				}
			}
			return false
		}
		return false
	}
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.ValueSpec:
			if len(node.Values) == 0 {
				for _, name := range node.Names {
					if v, ok := info.Defs[name].(*types.Var); ok && isJobSlice(v.Type()) {
						local[v] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(node.Lhs) != len(node.Rhs) {
				return true
			}
			for i, lhs := range node.Lhs {
				v := varOf(lhs)
				if v == nil || !isJobSlice(v.Type()) {
					continue
				}
				local[v] = isLocalAlloc(node.Rhs[i])
			}
		}
		return true
	})

	// jobSliceWrite resolves an lvalue down to the indexed job slice, if
	// any: jobs[i], jobs[i].Size, (jobs[i]).ID, jobs[i].X[j]...
	jobSliceWrite := func(e ast.Expr) ast.Expr {
		for {
			switch t := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e = t.X
			case *ast.IndexExpr:
				if tv, ok := info.Types[t.X]; ok && isJobSlice(tv.Type) {
					return t.X
				}
				e = t.X
			default:
				return nil
			}
		}
	}
	exempt := func(base ast.Expr) bool {
		v := varOf(base)
		return v != nil && local[v]
	}

	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if base := jobSliceWrite(lhs); base != nil && !exempt(base) {
					pass.Reportf(lhs.Pos(), "%s writes a job-slice element inside a //sim:readonly region%s (copy first)", where, via)
				}
			}
		case *ast.IncDecStmt:
			if base := jobSliceWrite(node.X); base != nil && !exempt(base) {
				pass.Reportf(node.Pos(), "%s writes a job-slice element inside a //sim:readonly region%s (copy first)", where, via)
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(node.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := info.Uses[id].(*types.Builtin)
			if !ok || len(node.Args) == 0 {
				return true
			}
			tv, ok := info.Types[node.Args[0]]
			if !ok || !isJobSlice(tv.Type) {
				return true
			}
			switch b.Name() {
			case "append":
				if !exempt(node.Args[0]) {
					pass.Reportf(node.Pos(), "%s appends to a job slice inside a //sim:readonly region%s (append can write into shared spare capacity)", where, via)
				}
			case "copy":
				if !exempt(node.Args[0]) {
					pass.Reportf(node.Pos(), "%s copies into a job slice inside a //sim:readonly region%s", where, via)
				}
			}
		}
		return true
	})
}
