package analysis

import (
	"go/ast"
	"go/types"
)

// Oblivious machine-checks the capability contracts behind
// server.RunDirect. A policy type that declares the oblivious capability —
// a method `Oblivious() bool` alongside `Assign` — promises that its
// Assign never reads the simulated system's state, only the job and the
// policy's own sequential state. A type that declares the work-only
// capability — `WorkOnly() bool` — promises that Assign reads host work
// only (WorkLeft, Idle, MinWorkHost, MinWorkHostIn), never the job counts
// or the idle freelist the direct path cannot answer. The
// direct-recurrence fast path depends on both promises for correctness (a
// policy that breaks one would silently simulate a different system), so
// the claims are enforced statically here, at run time by the views the
// direct path installs, and empirically by the differential tests in
// internal/policy and internal/simtest.
//
// The check: from each capability-declaring type's Assign method, walk the
// static call edges (EdgeCall, like allocfree and readonly) and flag any
// call to a method of an interface named View that the capability rules
// out: every state query (NumJobs, WorkLeft, Idle, MinWorkHost,
// MinWorkHostIn, MinJobsHost, NextIdleHost) for Oblivious, the job-count
// and freelist queries (NumJobs, MinJobsHost, NextIdleHost) for WorkOnly.
// Hosts() is exempt: the host count is configuration, not state.
//
// Delegating wrappers (Misclassify, EstimatedSITA) forward a capability
// from an inner policy held behind an interface; the inner Assign is
// interface dispatch, which this walk deliberately does not follow — the
// wrapper's claim is resolved at run time from the inner policy's answer,
// and the inner type is checked on its own when it declares the
// capability. What the walk does cover is the wrapper's own code and every
// concrete helper it statically calls.
var Oblivious = &Analyzer{
	Name: "oblivious",
	Doc: "types declaring the Oblivious or WorkOnly capability must not make " +
		"the View queries it rules out from Assign or its static callees: the " +
		"direct-recurrence fast path simulates them without maintaining that state",
	RunModule: runOblivious,
}

// capability is one direct-path capability: the declaring method's name,
// the View queries a declaration rules out, and what the diagnostic says
// such policies promise.
type capability struct {
	method    string
	forbidden map[string]bool
	promise   string
}

// capabilities lists the checked claims. Work-only policies may read host
// work, which the direct path answers from its per-host clocks; job
// counts and the idle freelist it cannot answer.
var capabilities = []capability{
	{
		method: "Oblivious",
		forbidden: map[string]bool{
			"NumJobs":       true,
			"WorkLeft":      true,
			"Idle":          true,
			"MinWorkHost":   true,
			"MinWorkHostIn": true,
			"MinJobsHost":   true,
			"NextIdleHost":  true,
		},
		promise: "state-blind policies must not consult system state",
	},
	{
		method: "WorkOnly",
		forbidden: map[string]bool{
			"NumJobs":      true,
			"MinJobsHost":  true,
			"NextIdleHost": true,
		},
		promise: "work-only policies may read host work, not job counts or idleness lists",
	},
}

func runOblivious(pass *ModulePass) {
	g := pass.Graph

	// Pass 1: receiver types declaring each capability (a `<method>() bool`
	// method) and, per receiver type, the node of its Assign method.
	// Assign nodes are kept in declaration order so the root list — and
	// with it the walk's discovery parents — is deterministic (Walk
	// re-sorts by key).
	declares := make(map[string]map[*types.TypeName]bool)
	for _, c := range capabilities {
		declares[c.method] = make(map[*types.TypeName]bool)
	}
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
				if fn.Name.Name == "Assign" {
					assigns = append(assigns, assignDecl{recv: recv, node: g.Node(obj.FullName())})
					continue
				}
				if set, ok := declares[fn.Name.Name]; ok {
					sig := obj.Type().(*types.Signature)
					if sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
						types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool]) {
						set[recv] = true
					}
				}
			}
		}
	}

	// Pass 2, per capability: walk from the declaring types' Assign
	// methods and flag the queries the claim rules out.
	for _, c := range capabilities {
		var roots []*CGNode
		for _, a := range assigns {
			if declares[c.method][a.recv] && a.node != nil {
				roots = append(roots, a.node)
			}
		}
		if len(roots) == 0 {
			continue
		}
		order, parent := g.Walk(roots, map[EdgeKind]bool{EdgeCall: true}, false)
		for _, n := range order {
			if n.Pkg == nil || n.Decl == nil || n.Decl.Body == nil {
				continue
			}
			checkViewReads(pass, g, n, parent, c)
		}
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

// checkViewReads reports calls to the View queries capability c rules out
// inside one function body reached from a declaring type's Assign.
func checkViewReads(pass *ModulePass, g *CallGraph, n *CGNode, parent map[*CGNode]*CGNode, c capability) {
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
		if !ok || !c.forbidden[m.Name()] {
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
		pass.Reportf(call.Pos(), "%s reads View.%s but its receiver declares the %s capability%s — %s", where, m.Name(), c.method, via, c.promise)
		return true
	})
}
