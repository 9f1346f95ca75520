package server

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sita/internal/sim"
	"sita/internal/tags"
	"sita/internal/workload"
)

// TestReadOnlyContract is the full check of the read-only input contract
// (see the package doc): internal/streamcache hands one generated job
// slice to every policy at a load point, so Run, RunPS and tags.Simulate
// must never write the slice they are given. Nine functions hold the
// slice: Run, runEngine, runDirect, RunPS, directRunner.replay and
// .assign, sim.Run, Engine.runFeed and tags.Simulate. CI runs this test
// with -coverpkg and fails unless it executes every statement of all
// nine, so a write on any of their paths — a plain run, an interrupted
// one, a refused feed or a refused configuration — changes the snapshot
// and fails it.

// contractJobs is the shared feed: longer than one interrupt poll, with
// arrival ties, and with IDs that are not arrival ordinals, so a path that
// stamped its ordinal on the slice instead of on its own copy would show.
func contractJobs() []workload.Job {
	jobs := goldenJobs(43, sim.InterruptEvery+1000)
	for i := range jobs {
		if i%7 == 6 {
			jobs[i].Arrival = jobs[i-1].Arrival
		}
		jobs[i].ID = 1000 + i
	}
	return jobs
}

// unchanged fails unless jobs matches snapshot bit for bit (NaN fields
// included).
func unchanged(t *testing.T, what string, jobs, snapshot []workload.Job) {
	t.Helper()
	for i := range jobs {
		a, b := jobs[i], snapshot[i]
		if a.ID != b.ID || math.Float64bits(a.Arrival) != math.Float64bits(b.Arrival) ||
			math.Float64bits(a.Size) != math.Float64bits(b.Size) {
			t.Fatalf("%s: job %d mutated: %+v, was %+v", what, i, a, b)
		}
	}
}

// refusal runs f, which must panic, and returns the panic's message ("" if
// f returned). A bad feed once sent PS into an endless event loop, so f
// runs on its own goroutine under a deadline.
func refusal(t *testing.T, f func()) string {
	t.Helper()
	done := make(chan string, 1)
	go func() {
		defer func() {
			msg, _ := recover().(string)
			done <- msg
		}()
		f()
	}()
	select {
	case msg := <-done:
		return msg
	case <-time.After(10 * time.Second):
		t.Fatal("still running after 10s")
		return ""
	}
}

// idRecorder records the job IDs a policy's Assign sees.
type idRecorder struct{ seen []int }

// stateIDRecorder wraps a state policy in an idRecorder.
type stateIDRecorder struct {
	StatePolicy
	idRecorder
}

func (r *stateIDRecorder) Assign(j workload.Job, v View) int {
	r.seen = append(r.seen, j.ID)
	return r.StatePolicy.Assign(j, v)
}

// workIDRecorder wraps a work policy in an idRecorder and stays a work
// policy, so Run takes the direct path.
type workIDRecorder struct {
	WorkPolicy
	idRecorder
}

func (r *workIDRecorder) Assign(j workload.Job, v WorkView) int {
	r.seen = append(r.seen, j.ID)
	return r.WorkPolicy.Assign(j, v)
}

// byOrdinal is a state-blind work policy: round-robin by arrival ordinal.
type byOrdinal struct{}

func (byOrdinal) Name() string                          { return "by-ordinal" }
func (byOrdinal) Assign(j workload.Job, v WorkView) int { return j.ID % v.Hosts() }

// A contractPath is one way a job slice enters the simulator. run
// simulates jobs on a fresh policy with the given interrupt probe and
// returns a bit-exact rendering of the result, the IDs the policy's Assign
// saw and the kept records. TAGS has no policy, keeps no records and takes
// no probe: its run ignores interrupt and returns only the rendering.
type contractPath struct {
	name   string
	server bool // a Run or RunPS path, not TAGS
	run    func(jobs []workload.Job, interrupt func() bool) (out string, seen []int, recs []JobRecord)
}

func contractPaths() []contractPath {
	path := func(name string, run func([]workload.Job, Config) *Result, cfg Config, policy func() (Policy, *idRecorder)) contractPath {
		return contractPath{name, true, func(jobs []workload.Job, interrupt func() bool) (string, []int, []JobRecord) {
			p, rec := policy()
			c := cfg
			c.Policy, c.Interrupt, c.KeepRecords = p, interrupt, true
			res := run(jobs, c)
			return formatRecords(res.Records), rec.seen, res.Records
		}}
	}
	work := func(p WorkPolicy) func() (Policy, *idRecorder) {
		return func() (Policy, *idRecorder) {
			r := &workIDRecorder{WorkPolicy: p}
			return r, &r.idRecorder
		}
	}
	state := func(p func() StatePolicy) func() (Policy, *idRecorder) {
		return func() (Policy, *idRecorder) {
			r := &stateIDRecorder{StatePolicy: p()}
			return r, &r.idRecorder
		}
	}
	return []contractPath{
		path("direct-blind", Run, Config{Hosts: 3}, work(byOrdinal{})),
		path("direct-work", Run, Config{Hosts: 3}, work(indexedLWL{})),
		// SizeClass and OnRecord arm runDirect's cold path.
		path("direct-classes", Run, Config{Hosts: 3, SizeClass: wideClass, OnRecord: func(JobRecord) {}}, work(goldenLWL{})),
		path("engine-push", Run, Config{Hosts: 3, OrderCheck: true}, work(goldenLWL{})),
		path("central-fcfs", Run, Config{Hosts: 3, CentralOrder: CentralFCFS}, state(func() StatePolicy { return toCentral{} })),
		path("central-sjf", Run, Config{Hosts: 3, CentralOrder: CentralSJF}, state(func() StatePolicy { return &alternating{} })),
		path("ps", RunPS, Config{Hosts: 3}, work(goldenLWL{})),
		{"tags", false, func(jobs []workload.Job, _ func() bool) (string, []int, []JobRecord) {
			return fmt.Sprintf("%+v", *tags.Simulate(jobs, []float64{10, 100}, 0.1)), nil, nil
		}},
	}
}

// badFeeds are the feeds every path must refuse, each by a panic naming
// the bad job's index; set spoils job at of a copy of the shared feed.
var badFeeds = []struct {
	name string
	at   int
	set  func(j *workload.Job)
}{
	{"nan-arrival-first", 0, func(j *workload.Job) { j.Arrival = math.NaN() }},
	{"nan-arrival", 100, func(j *workload.Job) { j.Arrival = math.NaN() }},
	{"inf-arrival", 100, func(j *workload.Job) { j.Arrival = math.Inf(1) }},
	{"unsorted", 100, func(j *workload.Job) { j.Arrival = -1 }},
	{"nan-size", 100, func(j *workload.Job) { j.Size = math.NaN() }},
	{"inf-size", 100, func(j *workload.Job) { j.Size = math.Inf(1) }},
	{"negative-size", 100, func(j *workload.Job) { j.Size = -4 }},
	{"zero-size", 100, func(j *workload.Job) { j.Size = 0 }},
}

func TestReadOnlyContract(t *testing.T) {
	shared := contractJobs()
	snapshot := append([]workload.Job(nil), shared...)
	paths := contractPaths()

	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			// A plain run leaves the input intact, and its policy and
			// records see arrival ordinals, not the input's IDs.
			_, seen, recs := p.run(shared, nil)
			unchanged(t, "plain", shared, snapshot)
			if p.server {
				if len(seen) != len(shared) || len(recs) != len(shared) {
					t.Fatalf("Assign saw %d jobs and %d records were kept, want %d of each", len(seen), len(recs), len(shared))
				}
				for i, id := range seen {
					if id != i {
						t.Fatalf("Assign call %d saw ID %d, want the arrival ordinal", i, id)
					}
				}
				for _, rec := range recs {
					if rec.ID < 0 || rec.ID >= len(shared) || rec.Arrival != shared[rec.ID].Arrival || rec.Size != shared[rec.ID].Size {
						t.Fatalf("record %+v does not carry its job's arrival ordinal", rec)
					}
				}

				// Interrupted at the first poll: the early exits.
				p.run(shared, func() bool { return true })
				unchanged(t, "interrupted", shared, snapshot)
			}

			for _, bf := range badFeeds {
				jobs := append([]workload.Job(nil), shared...)
				bf.set(&jobs[bf.at])
				spoiled := append([]workload.Job(nil), jobs...)
				msg := refusal(t, func() { p.run(jobs, nil) })
				if want := fmt.Sprintf("job %d ", bf.at); !strings.Contains(msg, want) {
					t.Errorf("%s: panic %q, want one naming %q", bf.name, msg, want)
				}
				unchanged(t, bf.name, jobs, spoiled)
			}
		})
	}

	// Refused configurations: the input is intact after these panics too.
	for _, c := range []struct {
		name, want string
		run        func(jobs []workload.Job)
	}{
		{"direct-host-out-of-range", `"central-liar" returned host -1`, func(jobs []workload.Job) {
			Run(jobs, Config{Hosts: 2, Policy: centralLiar{}})
		}},
		{"tags-nan-cutoff", "cutoffs must be non-negative and ascend", func(jobs []workload.Job) {
			tags.Simulate(jobs, []float64{math.NaN()}, 0)
		}},
		{"tags-negative-cutoff", "cutoffs must be non-negative and ascend", func(jobs []workload.Job) {
			tags.Simulate(jobs, []float64{-1}, 0)
		}},
		{"tags-descending-cutoffs", "cutoffs must be non-negative and ascend", func(jobs []workload.Job) {
			tags.Simulate(jobs, []float64{100, 10}, 0)
		}},
		{"tags-warmup", "warmup fraction 1", func(jobs []workload.Job) {
			tags.Simulate(jobs, []float64{10}, 1)
		}},
	} {
		if msg := refusal(t, func() { c.run(shared) }); !strings.Contains(msg, c.want) {
			t.Errorf("%s: panic %q, want one containing %q", c.name, msg, c.want)
		}
		unchanged(t, c.name, shared, snapshot)
	}

	// End to end: every path runs concurrently off the one shared slice,
	// repeatedly, and must reproduce its solo run on a private copy bit
	// for bit. A write by any run would make a sibling, or a later round,
	// replay a different feed.
	golden := make([]string, len(paths))
	for i, p := range paths {
		golden[i], _, _ = p.run(append([]workload.Job(nil), shared...), nil)
	}
	const rounds = 3
	got := make([][rounds]string, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int, p contractPath) {
				defer wg.Done()
				got[i][r], _, _ = p.run(shared, nil)
			}(i, r, p)
		}
	}
	wg.Wait()
	for i, p := range paths {
		for r := 0; r < rounds; r++ {
			if got[i][r] != golden[i] {
				t.Errorf("%s round %d off the shared slice diverged from its solo run", p.name, r)
			}
		}
	}
	unchanged(t, "concurrent", shared, snapshot)
}

// The three tests below pin the contract's original scenarios — fixed
// golden feeds, plain runs only — alongside the table above, which adds
// the interrupted runs, the refused feeds and the coverage gate.

// TestRunLeavesInputIntact runs every golden scenario's engine entry off
// one snapshot-checked slice: any mutation of any element fails.
func TestRunLeavesInputIntact(t *testing.T) {
	shared := goldenJobs(42, 3000)
	snapshot := append([]workload.Job(nil), shared...)

	Run(shared, Config{Hosts: 3, Policy: goldenLWL{}, KeepRecords: true, OrderCheck: true})
	Run(shared, Config{Hosts: 3, Policy: toCentral{}, CentralOrder: CentralFCFS})
	Run(shared, Config{Hosts: 3, Policy: toCentral{}, CentralOrder: CentralSJF})
	Run(shared, Config{Hosts: 3, Policy: &alternating{}, CentralOrder: CentralSJF})
	RunPS(shared, Config{Hosts: 2, Policy: goldenLWL{}})

	unchanged(t, "golden scenarios", shared, snapshot)
}

// TestRenumberPathLeavesInputIntact feeds non-ordinal IDs through every
// path — direct, both engine disciplines and PS. None may write the
// input; each must give its records, and its policy's Assign calls,
// arrival ordinals as IDs.
func TestRenumberPathLeavesInputIntact(t *testing.T) {
	shared := goldenJobs(43, 500)
	for i := range shared {
		shared[i].ID = 1000 + i
	}
	snapshot := append([]workload.Job(nil), shared...)

	direct := &workIDRecorder{WorkPolicy: indexedLWL{}}
	fcfs := &stateIDRecorder{StatePolicy: &alternating{}}
	sjf := &stateIDRecorder{StatePolicy: &alternating{}}
	ps := &workIDRecorder{WorkPolicy: goldenLWL{}}
	for _, c := range []struct {
		name string
		rec  *idRecorder
		run  func() *Result
	}{
		{"direct", &direct.idRecorder, func() *Result {
			cfg := Config{Hosts: 2, Policy: direct, KeepRecords: true}
			if !DirectEligible(cfg) {
				t.Fatal("the work recorder would not take the direct path")
			}
			return Run(shared, cfg)
		}},
		{"engine-fcfs", &fcfs.idRecorder, func() *Result {
			return Run(shared, Config{Hosts: 2, Policy: fcfs, CentralOrder: CentralFCFS, KeepRecords: true})
		}},
		{"engine-sjf", &sjf.idRecorder, func() *Result {
			return Run(shared, Config{Hosts: 2, Policy: sjf, CentralOrder: CentralSJF, KeepRecords: true})
		}},
		{"ps", &ps.idRecorder, func() *Result {
			return RunPS(shared, Config{Hosts: 2, Policy: ps, KeepRecords: true})
		}},
	} {
		res := c.run()
		unchanged(t, c.name, shared, snapshot)
		if len(c.rec.seen) != len(shared) {
			t.Fatalf("%s: Assign saw %d jobs, want %d", c.name, len(c.rec.seen), len(shared))
		}
		for i, id := range c.rec.seen {
			if id != i {
				t.Fatalf("%s: Assign call %d saw ID %d, want the arrival ordinal", c.name, i, id)
			}
		}
		if len(res.Records) != len(shared) {
			t.Fatalf("%s: kept %d records, want %d", c.name, len(res.Records), len(shared))
		}
		for _, rec := range res.Records {
			if rec.ID < 0 || rec.ID >= len(shared) || rec.Arrival != shared[rec.ID].Arrival || rec.Size != shared[rec.ID].Size {
				t.Fatalf("%s: record %+v does not carry its job's arrival ordinal", c.name, rec)
			}
		}
	}
}

// TestSharedSliceDifferential is the contract end to end: several
// policies run concurrently off ONE shared slice, repeatedly, and every
// run's bit-exact record stream must match a solo run on a private copy.
// If any run wrote the shared slice, a sibling (or a later round) would
// replay different golden records.
func TestSharedSliceDifferential(t *testing.T) {
	shared := goldenJobs(44, 2000)

	type scenario struct {
		name string
		run  func(jobs []workload.Job) *Result
	}
	scenarios := []scenario{
		{"push-lwl", func(jobs []workload.Job) *Result {
			return Run(jobs, Config{Hosts: 3, Policy: goldenLWL{}, KeepRecords: true, OrderCheck: true})
		}},
		{"central-sjf", func(jobs []workload.Job) *Result {
			return Run(jobs, Config{Hosts: 3, Policy: toCentral{}, CentralOrder: CentralSJF, KeepRecords: true})
		}},
		{"ps", func(jobs []workload.Job) *Result {
			return RunPS(jobs, Config{Hosts: 2, Policy: goldenLWL{}, KeepRecords: true})
		}},
	}

	// Golden records from solo runs on private copies.
	golden := make([]string, len(scenarios))
	for i, sc := range scenarios {
		private := append([]workload.Job(nil), shared...)
		golden[i] = formatRecords(sc.run(private).Records)
	}

	const rounds = 3
	var wg sync.WaitGroup
	got := make([][rounds]string, len(scenarios))
	for i, sc := range scenarios {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int, sc scenario) {
				defer wg.Done()
				got[i][r] = formatRecords(sc.run(shared).Records)
			}(i, r, sc)
		}
	}
	wg.Wait()

	for i, sc := range scenarios {
		for r := 0; r < rounds; r++ {
			if got[i][r] != golden[i] {
				t.Errorf("%s round %d off the shared slice diverged from its solo golden records", sc.name, r)
			}
		}
	}
}
