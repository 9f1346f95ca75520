package main

import "time"

// now is the benchmark's single wall-clock read. The benchmark exists to
// measure wall time; nothing it reads here reaches simulation output.
func now() time.Time {
	//lint:allow nowallclock the benchmark measures wall time around calls into the program
	return time.Now()
}

// sleepUntil blocks until t, the open-loop generator's send schedule.
func sleepUntil(t time.Time) {
	if d := t.Sub(now()); d > 0 {
		//lint:allow nowallclock the open-loop generator sends on a wall-clock schedule
		time.Sleep(d)
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
