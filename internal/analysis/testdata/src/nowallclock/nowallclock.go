// Package nowallclock is the golden fixture for the nowallclock
// analyzer: wall-clock reads are forbidden in simulation code.
package nowallclock

import (
	"os"
	"runtime"
	"time"
)

// stamp reads the wall clock: flagged.
func stamp() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

// pause sleeps against the wall clock: flagged.
func pause() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
}

// elapsed measures a wall-clock interval: flagged.
func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since reads the wall clock`
}

// sub does arithmetic on time values already held — no clock read, legal.
func sub(start, end time.Time) time.Duration {
	return end.Sub(start)
}

// scale works with durations only — legal.
func scale(d time.Duration) time.Duration {
	return 3 * d
}

// progress is the one sanctioned shape: operator-facing progress output
// under an explicit annotation.
func progress() time.Time {
	//lint:allow nowallclock operator progress output, not a simulation result
	return time.Now()
}

// clockValue stores time.Now as a function value — a wall clock on a
// delay line, flagged like the call.
func clockValue() func() time.Time {
	return time.Now // want `time\.Now referenced as a value`
}

// zoned reads the host timezone database: flagged.
func zoned() {
	_, _ = time.LoadLocation("UTC") // want `time\.LoadLocation reads the wall clock`
}

// sized reads the machine's CPU count: machine-dependent, flagged.
func sized() int {
	return runtime.NumCPU() // want `runtime\.NumCPU reads the wall clock or the machine`
}

// tuned reads the process environment: machine-dependent, flagged.
func tuned() string {
	return os.Getenv("SIM_KNOB") // want `os\.Getenv reads the wall clock or the machine`
}

// envValue smuggles os.Getenv as a value: flagged like the call.
func envValue() func(string) string {
	return os.Getenv // want `os\.Getenv referenced as a value`
}

// gomaxprocs reads the machine's parallelism in a library package:
// flagged (package main may read it; see TestSeededViolationFailsGate).
func gomaxprocs() int {
	return runtime.GOMAXPROCS(0) // want `runtime\.GOMAXPROCS reads the wall clock or the machine`
}
