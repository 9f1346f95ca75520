package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FloatEq flags == and != between floating-point operands. Simulation
// metrics accumulate rounding differently under reordering (the parallel
// runner sums per-cell results in deterministic order precisely because
// float addition is not associative), so exact equality silently encodes
// an ordering assumption. Three shapes remain legal because they are
// exact by IEEE-754 semantics: comparison against the constant zero
// (sentinel and sign tests), x == x (the NaN self-test), and
// constant-folded comparisons. Everything else belongs in a tolerance
// helper such as floatcmp.AlmostEqual.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc: "exact floating-point equality is brittle under rounding and " +
		"reordering; compare through a tolerance helper (AlmostEqual) or " +
		"restructure. Comparisons against the constant 0 and x == x NaN " +
		"checks are exempt.",
	Run: runFloatEq,
}

// toleranceHelperNames marks functions allowed to compare floats exactly:
// the tolerance helpers themselves, whose fast path is an exact match.
var toleranceHelperNames = []string{"almost", "approx", "within", "toler", "close"}

func isToleranceHelper(fn *ast.FuncDecl) bool {
	if fn == nil {
		return false
	}
	name := strings.ToLower(fn.Name.Name)
	for _, frag := range toleranceHelperNames {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return false
}

func runFloatEq(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		inspectFuncs(file, func(n ast.Node, fn *ast.FuncDecl) {
			if sw, ok := n.(*ast.SwitchStmt); ok {
				checkFloatSwitch(pass, sw, fn)
				return
			}
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return
			}
			xt, yt := info.Types[bin.X], info.Types[bin.Y]
			if xt.Type == nil || yt.Type == nil || !isFloat(xt.Type) || !isFloat(yt.Type) {
				return
			}
			if xt.Value != nil && yt.Value != nil { // constant-folded
				return
			}
			if isConstZero(xt) || isConstZero(yt) {
				return
			}
			if types.ExprString(bin.X) == types.ExprString(bin.Y) { // NaN self-test
				return
			}
			if isToleranceHelper(fn) {
				return
			}
			pass.Reportf(bin.Pos(),
				"floating-point %s is exact and brittle under rounding; use a tolerance helper (AlmostEqual) or compare against an explicit epsilon", bin.Op)
		})
	}
}

// checkFloatSwitch flags switch statements whose tag is a float (named
// float types included — the underlying kind is what compares): every
// case arm is an exact == against the tag, so the whole construct is a
// chain of the comparisons runFloatEq forbids, just spelled differently.
// Case expressions that are the constant zero keep the binary-expression
// exemption (a float is exactly zero iff nothing nonzero reached it);
// a switch whose every arm is exempt is not reported at all.
func checkFloatSwitch(pass *Pass, sw *ast.SwitchStmt, fn *ast.FuncDecl) {
	if sw.Tag == nil || isToleranceHelper(fn) {
		return
	}
	info := pass.Pkg.Info
	tagTV, ok := info.Types[sw.Tag]
	if !ok || tagTV.Type == nil || !isFloat(tagTV.Type) {
		return
	}
	for _, stmt := range sw.Body.List {
		clause, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range clause.List {
			tv, ok := info.Types[expr]
			if ok && isConstZero(tv) {
				continue
			}
			pass.Reportf(expr.Pos(),
				"switch case compares floats exactly (%s is %s); exact float dispatch is brittle under rounding — use if/else with a tolerance helper", types.ExprString(sw.Tag), tagTV.Type)
		}
	}
}

// isConstZero reports whether the operand is a compile-time numeric
// constant equal to zero. Exact-zero comparisons are well-defined (a
// float is zero iff no rounding has produced a nonzero bit) and serve as
// sentinel and sign tests throughout the queueing math.
func isConstZero(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
