// Package api is the fixture's public API package.
package api

import "sita/internal/analysis/testdata/src/reach/lib"

// E exposes lib.Exposed, and through its exported field lib.Fielded.
type E = lib.Exposed

// NewRunner exposes lib.Runner, whose methods callers may call.
func NewRunner() lib.Runner { return lib.Job{} }
