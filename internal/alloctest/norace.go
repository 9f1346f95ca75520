//go:build !race

package alloctest

// Race reports whether the race detector is on; see race.go.
const Race = false
