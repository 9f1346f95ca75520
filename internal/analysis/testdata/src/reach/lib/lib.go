// Package lib is the fixture for the reachability walk: one type per
// rule, each with a method the rule reaches and, where the rule can
// miss, one it must not. A want comment marks each declaration the walk
// must report.
package lib

import "fmt"

// Selected is named by a selector in cmd.
type Selected struct{}

// Called is reached through a selector.
func (Selected) Called() {}

// Uncalled has no caller at all.
func (Selected) Uncalled() {} // want `lib\.Selected\.Uncalled$`

// TestOnly is called by lib_test.go alone, which no binary builds.
func (Selected) TestOnly() {} // want `lib\.Selected\.TestOnly$`

// Valued is reached through a method value.
type Valued struct{}

// Get is taken as a method value in cmd, never called there.
func (Valued) Get() int { return 1 }

// Shape is a named interface that cmd calls through.
type Shape interface{ Area() float64 }

// Square is the Shape cmd builds.
type Square struct{ Side float64 }

// Area is reached through Shape.Area on a reached type.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter matches no interface call.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `lib\.Square\.Perimeter$`

// Circle answers Shape.Area too, but no reached code names Circle.
type Circle struct{ R float64 } // want `lib\.Circle$`

// Area is unreached with its type.
func (c Circle) Area() float64 { return 3 * c.R * c.R } // want `lib\.Circle\.Area$`

// MeanOf calls through an unnamed constraint interface.
func MeanOf[M interface{ Mean() float64 }](m M) float64 { return m.Mean() }

// Const is the value cmd hands MeanOf.
type Const struct{ V float64 }

// Mean is reached through MeanOf's constraint.
func (c Const) Mean() float64 { return c.V }

// Inner's methods are promoted into Outer.
type Inner struct{}

// Size is reached through Sizer.Size on Outer's method set.
func (Inner) Size() int { return 1 }

// Direct is reached through a selector on an Outer value.
func (Inner) Direct() {}

// Outer embeds Inner.
type Outer struct{ Inner }

// Sizer is the interface Total calls through.
type Sizer interface{ Size() int }

// Total calls Size through Sizer.
func Total(s Sizer) int { return s.Size() }

// Name reaches fmt as a Stringer.
type Name string

// String is rooted by name: fmt calls it.
func (n Name) String() string { return string(n) }

// Failure reaches fmt as an error.
type Failure struct{}

// Error is rooted by name: fmt calls it.
func (Failure) Error() string { return "failure" }

// Fancy reaches fmt as a Formatter.
type Fancy struct{}

// Format is rooted by name: fmt calls it.
func (Fancy) Format(f fmt.State, _ rune) { fmt.Fprint(f, "fancy") }

// Exposed is aliased by the api package.
type Exposed struct {
	Field Fielded
	inner Hidden
}

// Public is public API through the alias.
func (Exposed) Public() {}

// private is not public API.
func (Exposed) private() {} // want `lib\.Exposed\.private$`

// Fielded is the type of an exported field of Exposed.
type Fielded struct{}

// Public is public API through the exported field.
func (Fielded) Public() {}

// Hidden is the type of an unexported field of Exposed.
type Hidden struct{}

// Public is not public API: no exported name exposes Hidden.
func (Hidden) Public() {} // want `lib\.Hidden\.Public$`

// Runner is an interface the api package returns.
type Runner interface{ Run() }

// Job is the Runner the api package hands out.
type Job struct{}

// Run is public API: callers of api.NewRunner may call it through Runner.
func (Job) Run() {}

// Oracle is an interface only tests call through.
type Oracle interface{ Probe() int }

// Probed is reached by cmd, but only tests call its Probe.
type Probed struct{}

// Probe is reached through the allowlisted interface method Oracle.Probe.
func (Probed) Probe() int { return 0 }
