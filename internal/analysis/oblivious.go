package analysis

import (
	"go/ast"
	"go/types"
)

// Oblivious machine-checks the capability contract behind the direct
// path of server.Run. A policy type that declares the work-only
// capability — a method `WorkOnly() bool` alongside `Assign` — promises
// that its Assign reads system state at most through host work
// (WorkLeft, Idle, MinWorkHost, MinWorkHostIn), never the job counts or
// the idle freelist the direct path cannot answer. State-blind policies
// (Random, Round-Robin, SITA) keep the promise by reading nothing. The
// direct-recurrence fast path depends on it for correctness (a policy
// that breaks it would silently simulate a different system), so the
// claim is enforced statically here, at run time by the view the direct
// path installs, and empirically by the differential tests in
// internal/policy and internal/simtest.
//
// The check: from each declaring type's Assign method, walk the static
// call edges (like allocfree and readonly) and flag any call to
// a method of an interface named View that the capability rules out:
// NumJobs, MinJobsHost, NextIdleHost. Hosts() and the host-work queries
// stay legal.
//
// Delegating wrappers (Misclassify, EstimatedSITA) forward the capability
// from an inner policy held behind an interface; the inner Assign is
// interface dispatch, which this walk deliberately does not follow — the
// wrapper's claim is resolved at run time from the inner policy's answer,
// and the inner type is checked on its own when it declares the
// capability. What the walk does cover is the wrapper's own code and every
// concrete helper it statically calls.
var Oblivious = &Analyzer{
	Name: "oblivious",
	Doc: "types declaring the WorkOnly capability must not read job counts or " +
		"the idle freelist (View.NumJobs, MinJobsHost, NextIdleHost) from Assign " +
		"or its static callees: the direct-recurrence fast path answers only host work",
	RunModule: runOblivious,
}

// workOnlyForbidden lists the View queries a WorkOnly declaration rules
// out: the direct path answers host work from its per-host clocks, but
// not job counts or the idle freelist.
var workOnlyForbidden = map[string]bool{
	"NumJobs":      true,
	"MinJobsHost":  true,
	"NextIdleHost": true,
}

func runOblivious(pass *ModulePass) {
	g := pass.Graph

	// Pass 1: receiver types declaring the capability (a `WorkOnly() bool`
	// method) and the Assign methods' nodes, in declaration order so the
	// root list — and with it the walk's discovery parents — is
	// deterministic (Walk re-sorts by key).
	declares := make(map[*types.TypeName]bool)
	type assignDecl struct {
		recv *types.TypeName
		node *CGNode
	}
	var assigns []assignDecl
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				recv := receiverTypeName(obj)
				if recv == nil {
					continue
				}
				switch fn.Name.Name {
				case "Assign":
					assigns = append(assigns, assignDecl{recv: recv, node: g.Node(obj.FullName())})
				case "WorkOnly":
					sig := obj.Type().(*types.Signature)
					if sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
						types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool]) {
						declares[recv] = true
					}
				}
			}
		}
	}

	// Pass 2: walk from the declaring types' Assign methods and flag the
	// queries the claim rules out.
	var roots []*CGNode
	for _, a := range assigns {
		if declares[a.recv] && a.node != nil {
			roots = append(roots, a.node)
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
		checkViewReads(pass, g, n, parent)
	}
}

// receiverTypeName resolves a method's receiver to its named type, seeing
// through pointers.
func receiverTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// checkViewReads reports calls to the View queries the capability rules
// out inside one function body reached from a declaring type's Assign.
func checkViewReads(pass *ModulePass, g *CallGraph, n *CGNode, parent map[*CGNode]*CGNode) {
	info := n.Pkg.Info
	where := g.Display(n.Key)
	via := ""
	if parent[n] != nil {
		via = " (reached via " + g.pathVia(parent, n) + ")"
	}
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok {
			return true
		}
		m, ok := selection.Obj().(*types.Func)
		if !ok || !workOnlyForbidden[m.Name()] {
			return true
		}
		msig, ok := m.Type().(*types.Signature)
		if !ok || msig.Recv() == nil || !types.IsInterface(msig.Recv().Type()) {
			return true
		}
		named, ok := types.Unalias(selection.Recv()).(*types.Named)
		if !ok || named.Obj().Name() != "View" {
			return true
		}
		pass.Reportf(call.Pos(), "%s reads View.%s but its receiver declares the WorkOnly capability%s — work-only policies may read host work, not job counts or idleness lists", where, m.Name(), via)
		return true
	})
}
