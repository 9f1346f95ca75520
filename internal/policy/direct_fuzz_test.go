package policy

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sita/internal/server"
	"sita/internal/sim"
	"sita/internal/workload"
)

// rangeOrRobin alternates a least-work pick among hosts 1.. with a
// round-robin pick over all hosts, so the direct path's work index must
// follow clocks advanced by picks that never query it.
type rangeOrRobin struct{ n int }

func (*rangeOrRobin) Name() string { return "range-or-robin" }
func (p *rangeOrRobin) Assign(_ workload.Job, v server.WorkView) int {
	p.n++
	if p.n%2 == 0 {
		return v.MinWorkHostIn(min(1, v.Hosts()-1), v.Hosts())
	}
	return p.n % v.Hosts()
}

// fuzzHeader is the number of leading bytes FuzzDirectMatchesEngine reads
// as run parameters; the bytes after it (and after any SITA cutoffs) are
// jobs.
const fuzzHeader = 6

// fuzzMaxJobs bounds a decoded stream, so each input runs in well under a
// millisecond and the fuzzer spends its time on variety, not length.
const fuzzMaxJobs = 512

// fuzzCase is one decoded FuzzDirectMatchesEngine input.
type fuzzCase struct {
	hosts     int
	warmup    float64
	build     func() server.WorkPolicy
	sizeClass func(float64) int
	jobs      []workload.Job
}

// decodeFuzzCase turns bytes into a run. Header bytes, in order:
//
//	0: hosts, 1 + b%9
//	1: warmup fraction, (b%10)/10
//	2: policy: Random, Round-Robin, SITA, LWL, grouped SITA, range-or-robin
//	3: size classifier: none, labels in the class tally's cached range,
//	   negative labels, labels past that range
//	4: bit 0 gives the jobs non-ordinal IDs; the rest seeds Random
//	5: grouped SITA's cutoff (low nibble) and short-group size (high)
//
// SITA then reads hosts-1 bytes as cutoff steps of 0 to 7, so equal
// cutoffs and sizes on a cutoff occur. Each remaining byte is one job:
// the gap since the previous arrival, b>>5 (0 to 7), and the size,
// 1 + b&31. Arrivals and sizes on that small integer grid make exact
// finish, start and arrival ties common.
func decodeFuzzCase(data []byte) fuzzCase {
	var hdr [fuzzHeader]byte
	n := copy(hdr[:], data)
	data = data[n:]
	c := fuzzCase{hosts: 1 + int(hdr[0]%9), warmup: float64(hdr[1]%10) / 10}
	h := c.hosts
	switch hdr[2] % 6 {
	case 0:
		seed := uint64(hdr[4] >> 1)
		c.build = func() server.WorkPolicy { return NewRandom(sim.NewRNG(seed, 0)) }
	case 1:
		c.build = func() server.WorkPolicy { return NewRoundRobin() }
	case 2:
		cutoffs := make([]float64, h-1)
		at := 0.0
		for i := range cutoffs {
			if len(data) > 0 {
				at += float64(data[0] % 8)
				data = data[1:]
			}
			cutoffs[i] = at
		}
		c.build = func() server.WorkPolicy { return NewSITA("sita", cutoffs) }
	case 3:
		c.build = func() server.WorkPolicy { return NewLeastWorkLeft() }
	case 4:
		cutoff, short := float64(hdr[5]&15), 1
		if h == 1 {
			cutoff = math.Inf(1) // one host: every job is short
		} else {
			short = 1 + int(hdr[5]>>4)%(h-1)
		}
		c.build = func() server.WorkPolicy { return NewGroupedSITA("grouped", cutoff, short) }
	default:
		c.build = func() server.WorkPolicy { return &rangeOrRobin{} }
	}
	switch hdr[3] % 4 {
	case 1:
		c.sizeClass = func(size float64) int { return int(size) % 4 }
	case 2:
		c.sizeClass = func(size float64) int { return -1 - int(size)%3 }
	case 3:
		c.sizeClass = func(size float64) int { return 5 * int(size) }
	}
	data = data[:min(len(data), fuzzMaxJobs)]
	c.jobs = make([]workload.Job, len(data))
	at := 0.0
	for i, b := range data {
		at += float64(b >> 5)
		c.jobs[i] = workload.Job{ID: i, Arrival: at, Size: float64(1 + b&31)}
		if hdr[4]&1 != 0 {
			c.jobs[i].ID = 7 * (len(data) - i)
		}
	}
	return c
}

// encodeFuzzJobs is decodeFuzzCase's job encoding, for seeding the
// corpus with known streams. Panics on a job off the decodable grid.
func encodeFuzzJobs(jobs []workload.Job) []byte {
	out := make([]byte, len(jobs))
	prev := 0.0
	for i, j := range jobs {
		gap, size := j.Arrival-prev, j.Size-1
		if gap != math.Trunc(gap) || gap < 0 || gap > 7 || size != math.Trunc(size) || size < 0 || size > 31 {
			panic(fmt.Sprintf("job %+v is off the fuzz grid", j))
		}
		out[i] = byte(gap)<<5 | byte(size)
		prev = j.Arrival
	}
	return out
}

// FuzzDirectMatchesEngine is the direct recurrence's differential fuzz
// target: each input decodes to a job stream on an integer grid, a host
// count, a warmup fraction, a work-only policy and a size classifier, and
// runs through plain server.Run (the direct path) and with OrderCheck
// (the event-heap engine). The two runs must agree bit for bit on the
// warmup-inclusive OnRecord stream, the class tallies and every Result
// field but MeanQueueLen, which only the engine accrues.
func FuzzDirectMatchesEngine(f *testing.F) {
	// The tie-trap streams of the server package's parity tests: a
	// hand-built one whose arrivals meet departures exactly, and the
	// random grid stream of gaps 0-2 and sizes 1-3 at about 2/3 load.
	ties := []workload.Job{
		{Arrival: 0, Size: 5}, {Arrival: 0, Size: 5}, {Arrival: 0, Size: 2},
		{Arrival: 2, Size: 3}, {Arrival: 5, Size: 1}, {Arrival: 5, Size: 1},
		{Arrival: 5, Size: 7}, {Arrival: 6, Size: 1}, {Arrival: 13, Size: 13},
		{Arrival: 13, Size: 13},
	}
	rng := sim.NewRNG(49, 0)
	traps := make([]workload.Job, 300)
	at := 0.0
	for i := range traps {
		at += float64(rng.IntN(3))
		traps[i] = workload.Job{Arrival: at, Size: float64(1 + rng.IntN(3))}
	}
	for _, hdr := range [][]byte{
		{2, 0, 1, 1, 0, 0},       // 3 hosts, Round-Robin, cached labels
		{2, 2, 3, 2, 1, 0x12},    // 3 hosts, LWL, negative labels, non-ordinal IDs
		{3, 3, 4, 3, 0, 0x12},    // 4 hosts, grouped SITA, labels past the cache
		{2, 1, 5, 1, 5, 0},       // 3 hosts, range-or-robin
		{1, 2, 2, 3, 0, 0, 2},    // 2 hosts, SITA at cutoff 2
		{8, 0, 0, 1, 9, 0},       // 9 hosts, seeded Random
		{0, 5, 3, 1, 1, 0},       // 1 host, LWL
		{2, 0, 2, 0, 0, 0, 1, 1}, // 3 hosts, SITA at cutoffs 1 and 2
	} {
		f.Add(append(append([]byte(nil), hdr...), encodeFuzzJobs(ties)...))
		f.Add(append(append([]byte(nil), hdr...), encodeFuzzJobs(traps)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		var seen [2][]server.JobRecord
		run := func(path int) *server.Result {
			return server.Run(c.jobs, server.Config{
				Hosts:          c.hosts,
				Policy:         c.build(),
				WarmupFraction: c.warmup,
				KeepRecords:    true,
				SizeClass:      c.sizeClass,
				OrderCheck:     path == 1,
				OnRecord:       func(r server.JobRecord) { seen[path] = append(seen[path], r) },
			})
		}
		direct, engine := run(0), run(1)
		if len(seen[0]) != len(seen[1]) {
			t.Fatalf("direct emitted %d records, engine %d", len(seen[0]), len(seen[1]))
		}
		for i := range seen[0] {
			if seen[0][i] != seen[1][i] {
				t.Fatalf("emission %d differs:\ndirect: %+v\nengine: %+v", i, seen[0][i], seen[1][i])
			}
		}
		if diff := classDiff(direct.Classes, engine.Classes); diff != "" {
			t.Fatal(diff)
		}
		engine.MeanQueueLen = 0 // the engine's own accrual; 0 on the direct path
		if !reflect.DeepEqual(direct, engine) {
			t.Fatalf("results differ:\ndirect: %+v\nengine: %+v", direct, engine)
		}
	})
}
