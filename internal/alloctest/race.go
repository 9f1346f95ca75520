//go:build race

package alloctest

// Race reports whether the race detector is on. Its instrumentation
// allocates on its own schedule (a TAGS run once read two objects fewer
// on a feed twice as long), so allocation counts are not comparable
// under it and the contract tests skip their allocation checks.
const Race = true
