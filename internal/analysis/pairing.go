package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Pairing checks the lock and goroutine pairing conventions the HTTP
// service (internal/service) and the worker pools depend on for
// correctness under early returns and concurrency:
//
//   - Lock/Unlock: a mutex Lock without a deferred Unlock must reach its
//     unlock on every path; a return statement lexically between the
//     Lock and the next matching Unlock of the same receiver exits with
//     the lock held. (RLock pairs with RUnlock, Lock with Unlock.)
//
//   - WaitGroup.Add placement: wg.Add on a captured WaitGroup inside a
//     go-launched function literal races the corresponding Wait — the
//     counter may be observed at zero before the goroutine runs. Add
//     belongs before the go statement.
//
// The pooled simulation engine needs no rule here: sim.Run is the only
// code that takes one from the pool, and it returns it on every exit.
// Mutex and WaitGroup methods are matched by their defining package
// (sync), so renamed fields and embedded mutexes are still caught. Each
// function body is analyzed as its own unit: returns and locks inside
// nested function literals belong to the literal, not the enclosing
// function.
var Pairing = &Analyzer{
	Name: "pairing",
	Doc: "lock and goroutine pairing: no return between Lock and its " +
		"Unlock, no WaitGroup.Add inside the goroutine being waited for",
	Run: runPairing,
}

// bodyUnit is one function body analyzed in isolation: a declaration or
// a function literal, with nested literals excluded from its statements.
type bodyUnit struct {
	body     *ast.BlockStmt
	label    string
	goLaunch bool         // the unit is the function of a go statement
	litRange [2]token.Pos // literal extent; zero for declarations
}

func runPairing(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			units := collectUnits(fn)
			for _, u := range units {
				checkUnit(pass, u)
			}
		}
	}
}

// collectUnits splits a declaration into body units: the declaration
// itself plus every nested function literal, each tagged with whether it
// is directly launched by a go statement.
func collectUnits(fn *ast.FuncDecl) []bodyUnit {
	units := []bodyUnit{{body: fn.Body, label: fn.Name.Name}}
	goLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(fn.Body, func(node ast.Node) bool {
		if g, ok := node.(*ast.GoStmt); ok {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok {
			units = append(units, bodyUnit{
				body:     lit.Body,
				label:    fn.Name.Name + " (func literal)",
				goLaunch: goLits[lit],
				litRange: [2]token.Pos{lit.Pos(), lit.End()},
			})
		}
		return true
	})
	return units
}

// inspectUnit walks a body unit's statements, skipping nested literals.
func inspectUnit(u bodyUnit, visit func(ast.Node) bool) {
	ast.Inspect(u.body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit.Body != u.body {
			return false
		}
		return visit(node)
	})
}

// syncMethod reports whether call is a method call defined by package
// sync with the given name, returning the receiver expression.
func syncMethod(info *types.Info, call *ast.CallExpr, name string) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return nil, false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, false
	}
	return sel.X, true
}

// calleeName extracts the bare name of a call's function expression.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func checkUnit(pass *Pass, u bodyUnit) {
	info := pass.Pkg.Info

	type lockSite struct {
		recv   string // receiver expression, printed
		unlock string // matching unlock method name
		pos    token.Pos
	}
	var locks []lockSite
	unlocks := make(map[string][]token.Pos)      // recv+method -> plain unlock positions
	deferUnlocks := make(map[string][]token.Pos) // recv+method -> deferred unlock positions
	var returns []token.Pos

	recordDeferredUnlock := func(call *ast.CallExpr, pos token.Pos) {
		name := calleeName(call)
		if name != "Unlock" && name != "RUnlock" {
			return
		}
		if recv, ok := syncMethod(info, call, name); ok {
			k := types.ExprString(recv) + "." + name
			deferUnlocks[k] = append(deferUnlocks[k], pos)
		}
	}

	inspectUnit(u, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.ReturnStmt:
			returns = append(returns, node.Pos())
		case *ast.DeferStmt:
			recordDeferredUnlock(node.Call, node.Pos())
			// A deferred closure that unlocks also counts:
			// defer func() { mu.Unlock() }() is a valid pairing.
			if lit, ok := ast.Unparen(node.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(inner ast.Node) bool {
					if call, ok := inner.(*ast.CallExpr); ok {
						recordDeferredUnlock(call, node.Pos())
					}
					return true
				})
			}
			return false // statements inside a defer are not normal flow
		case *ast.CallExpr:
			name := calleeName(node)
			switch name {
			case "Lock", "RLock":
				if recv, ok := syncMethod(info, node, name); ok {
					unlock := "Unlock"
					if name == "RLock" {
						unlock = "RUnlock"
					}
					locks = append(locks, lockSite{
						recv:   types.ExprString(recv),
						unlock: unlock,
						pos:    node.Pos(),
					})
				}
			case "Unlock", "RUnlock":
				if recv, ok := syncMethod(info, node, name); ok {
					k := types.ExprString(recv) + "." + name
					unlocks[k] = append(unlocks[k], node.Pos())
				}
			case "Add":
				if recv, ok := syncMethod(info, node, "Add"); ok && u.goLaunch {
					// Only a captured WaitGroup races the outer Wait; one
					// declared inside the goroutine is the goroutine's own.
					if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok &&
							(v.Pos() < u.litRange[0] || v.Pos() > u.litRange[1]) {
							pass.Reportf(node.Pos(),
								"WaitGroup.Add inside the goroutine being waited for races Wait; call Add before the go statement")
						}
					}
				}
			}
		}
		return true
	})

	// Lock pairing: a lock with no deferred unlock must reach a plain
	// unlock of the same receiver, with no return in the window between.
	for _, l := range locks {
		k := l.recv + "." + l.unlock
		deferred := false
		for _, p := range deferUnlocks[k] {
			if p > l.pos {
				deferred = true
				break
			}
		}
		if deferred {
			continue
		}
		var next token.Pos
		for _, p := range unlocks[k] {
			if p > l.pos && (next == token.NoPos || p < next) {
				next = p
			}
		}
		if next == token.NoPos {
			pass.Reportf(l.pos,
				"%s.%s has no deferred or paired %s in %s; the lock can be held past every exit",
				l.recv, lockName(l.unlock), l.unlock, u.label)
			continue
		}
		for _, r := range returns {
			if r > l.pos && r < next {
				pass.Reportf(r,
					"return while %s is locked (locked at one site above, %s comes later); unlock first or use defer", l.recv, l.unlock)
			}
		}
	}
}

// lockName maps an unlock method back to its lock method for messages.
func lockName(unlock string) string {
	if unlock == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}
