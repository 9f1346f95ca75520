package analysis

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the package-level functions of "time" that read or
// depend on the wall clock or the host's time configuration. Durations,
// formatting, and time arithmetic on values already held are fine;
// acquiring the current time (or sleeping against it) inside simulation
// code makes output depend on the machine, which breaks deterministic
// replay. Simulated time comes from sim.Engine; intentional uses (CLI
// progress reporting) carry a //lint:allow nowallclock annotation.
var wallClockFuncs = map[string]bool{
	"Now":          true,
	"Since":        true,
	"Until":        true,
	"Sleep":        true,
	"After":        true,
	"AfterFunc":    true,
	"Tick":         true,
	"NewTicker":    true,
	"NewTimer":     true,
	"LoadLocation": true, // reads the host timezone database
}

// machineFuncs are non-time sources whose value depends on the machine or
// process environment rather than the simulation inputs: equally fatal to
// replay, and historically the first things a "quick tuning hack"
// reaches for. runtime.GOMAXPROCS is forbidden in library packages only:
// a command may set or read its own parallelism, and the few library
// sites that size a worker pool with it (whose merge order makes output
// independent of the worker count) say so with an annotation.
var machineFuncs = map[string]map[string]bool{
	"runtime": {"NumCPU": true, "GOMAXPROCS": true},
	"os": {
		"Getenv":    true,
		"LookupEnv": true,
		"Environ":   true,
		"Hostname":  true,
		"Getpid":    true,
	},
}

// NoWallClock forbids wall-clock and machine-dependent access in
// simulation code, whether called directly or referenced as a function
// value (a stored time.Now is a wall clock on a delay line).
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc: "time.Now, time.Since and friends read the wall clock, and " +
		"runtime.NumCPU / os.Getenv read the machine, so any value they " +
		"influence differs between runs and hosts. Simulated time advances " +
		"only through sim.Engine; intentional uses (command progress " +
		"output, worker-pool sizing) carry an explicit //lint:allow " +
		"nowallclock annotation. runtime.GOMAXPROCS is flagged outside " +
		"package main only. References to these functions as values are " +
		"flagged like calls.",
	Run: runNoWallClock,
}

// forbiddenSource classifies a package-level function, returning a
// display name ("time.Now") when it is a forbidden source.
func forbiddenSource(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	if path == "time" && wallClockFuncs[name] {
		return "time." + name, true
	}
	if set, ok := machineFuncs[path]; ok && set[name] {
		return path + "." + name, true
	}
	return "", false
}

func runNoWallClock(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		// Distinguish call sites from value references: both are
		// forbidden, but the message should say which shape it saw.
		calls := make(map[ast.Node]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				calls[ast.Unparen(call.Fun)] = true
			}
			return true
		})
		inspectFuncs(file, func(n ast.Node, _ *ast.FuncDecl) {
			// Qualified references are always SelectorExprs (pkg.Func);
			// reporting there, not at the inner Ident, avoids
			// double-counting one reference as two findings.
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return // methods (t.Add, d.Seconds) are pure arithmetic
			}
			name, forbidden := forbiddenSource(fn)
			if !forbidden || (name == "runtime.GOMAXPROCS" && pass.Pkg.IsCommand()) {
				return
			}
			if calls[sel] {
				pass.Reportf(sel.Pos(),
					"%s reads the wall clock or the machine and breaks deterministic replay; simulated time comes from sim.Engine (annotate intentional uses such as progress output or worker-pool sizing with %s nowallclock <reason>)",
					name, AllowPrefix)
				return
			}
			pass.Reportf(sel.Pos(),
				"%s referenced as a value smuggles a wall-clock/machine source past call-site checks; pass simulated time or a seeded source instead (%s nowallclock <reason> if intentional)",
				name, AllowPrefix)
		})
	}
}
