package server

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sita/internal/alloctest"
	"sita/internal/sim"
	"sita/internal/tags"
	"sita/internal/workload"
)

// TestReadOnlyContract is the runtime check of the simulator's two
// contracts, one row per way a job slice enters it.
//
// Read-only input (see the package doc): internal/streamcache hands one
// generated job slice to every policy at a load point, so Run, RunPS and
// tags.Simulate must never write the slice they are given. Every row's
// plain, interrupted, empty and refused runs, and the refused
// configurations, snapshot-compare the slice afterwards.
//
// Allocation: a run's allocation count does not grow with its jobs or
// events. Its allocation column runs each row on the shared feed and on
// the feed doubled, and the doubled run may allocate no more objects;
// the held-core rows hold the direct runner across replays, as the pool
// does for a sweep's cells, and a replay must allocate nothing. (The
// engine's held-core row is sim's TestHeldEngineAllocatesNothing.)
// Once-per-run allocations of per-run state (the Result, a System) are
// outside the contract.
//
// Both checks see only the statements a run executes, so CI runs this
// test under scripts/contract-coverage.sh, which fails unless every
// function in server, sim, tags, hostindex and stats that the table
// enters runs every one of its statements.

// contractLen is the shared feed's length: longer than one interrupt
// poll, and a multiple of the rows' three hosts, so a policy cycling by
// arrival ordinal starts the doubled feed's second copy in phase.
const contractLen = sim.InterruptEvery + 1004

// contractJobs is the shared feed. Every seventh job is its
// predecessor's twin (same arrival, same size), so arrivals, departures
// and SJF candidates tie exactly, and IDs are not arrival ordinals, so a
// path that stamped its ordinal on the slice instead of on its own copy
// would show. Four jobs lead the generated ones: job 1 arrives exactly as
// job 0, alone on its host, completes — 0.1+0.2 rounds up, so a PS host's
// charge for the elapsed time overshoots job 0's remaining work by an
// ulp — and jobs 2 and 3, on two hosts, finish together at 3.5 after
// starting apart.
func contractJobs() []workload.Job {
	jobs := goldenJobs(43, contractLen)
	for i := range jobs {
		jobs[i].Arrival += 4
	}
	a, s := 0.1, 0.2
	jobs[0] = workload.Job{Arrival: a, Size: s}
	jobs[1] = workload.Job{Arrival: a + s, Size: 1}
	jobs[2] = workload.Job{Arrival: 1.5, Size: 2}
	jobs[3] = workload.Job{Arrival: 2.5, Size: 1}
	for i := range jobs {
		if i%7 == 6 {
			jobs[i] = jobs[i-1]
		}
		jobs[i].ID = 1000 + i
	}
	return jobs
}

// doubled returns jobs followed by a copy shifted past a full drain: the
// shift exceeds the last arrival plus three times the total work (TAGS
// may run a job on each of its three hosts), so no host holds work from
// the first copy when the second begins.
func doubled(jobs []workload.Job) []workload.Job {
	shift := jobs[len(jobs)-1].Arrival
	for _, j := range jobs {
		shift += 3 * j.Size
	}
	out := append(append([]workload.Job(nil), jobs...), jobs...)
	for i := len(jobs); i < len(out); i++ {
		out[i].Arrival += shift
	}
	return out
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

// rangeLWL is grouped SITA+LWL in miniature: jobs up to size 5 (about a
// third of the shared feed's work) go to host 0, the rest to the least
// loaded of the others, both through MinWorkHostIn.
type rangeLWL struct{}

func (rangeLWL) Name() string { return "range-lwl" }
func (rangeLWL) Assign(j workload.Job, v WorkView) int {
	if j.Size <= 5 {
		return v.MinWorkHostIn(0, 1)
	}
	return v.MinWorkHostIn(1, v.Hosts())
}

// shortestOrHold is Shortest-Queue that holds a job centrally while every
// host has two or more.
type shortestOrHold struct{}

func (shortestOrHold) Name() string { return "shortest-or-hold" }
func (shortestOrHold) Assign(_ workload.Job, v View) int {
	if i := v.MinJobsHost(); v.NumJobs(i) < 2 {
		return i
	}
	return Central
}

// shortestQueue is Shortest-Queue, for PS hosts, which hold nothing
// centrally.
type shortestQueue struct{}

func (shortestQueue) Name() string                      { return "shortest-queue" }
func (shortestQueue) Assign(_ workload.Job, v View) int { return v.MinJobsHost() }

// A contractPath is one way a job slice enters the simulator. run
// simulates jobs on a fresh policy with the given interrupt probe. TAGS
// has no policy and takes no probe: its run ignores interrupt.
type contractPath struct {
	name   string
	server bool // a Run or RunPS path, not TAGS
	run    func(jobs []workload.Job, interrupt func() bool) contractRun
}

// contractRun is one run's outcome: a Run or RunPS Result, with every
// record kept, and the IDs the policy's Assign saw, or a TAGS result.
type contractRun struct {
	res  *Result
	seen []int
	tags *tags.Result
}

// String renders the run bit-exactly: the kept records, or the whole
// TAGS result.
func (r contractRun) String() string {
	if r.tags != nil {
		return fmt.Sprintf("%+v", *r.tags)
	}
	return formatRecords(r.res.Records)
}

func contractPaths() []contractPath {
	path := func(name string, run func([]workload.Job, Config) *Result, cfg Config, policy func() (Policy, *idRecorder)) contractPath {
		return contractPath{name, true, func(jobs []workload.Job, interrupt func() bool) contractRun {
			p, rec := policy()
			// Room for every ID up front: the recorder allocates once per
			// run, like the Result.
			rec.seen = make([]int, 0, len(jobs))
			c := cfg
			c.Policy, c.Interrupt, c.KeepRecords = p, interrupt, true
			res := run(jobs, c)
			return contractRun{res: res, seen: rec.seen}
		}}
	}
	fresh := func(p func() WorkPolicy) func() (Policy, *idRecorder) {
		return func() (Policy, *idRecorder) {
			r := &workIDRecorder{WorkPolicy: p()}
			return r, &r.idRecorder
		}
	}
	work := func(p WorkPolicy) func() (Policy, *idRecorder) {
		return fresh(func() WorkPolicy { return p })
	}
	state := func(p func() StatePolicy) func() (Policy, *idRecorder) {
		return func() (Policy, *idRecorder) {
			r := &stateIDRecorder{StatePolicy: p()}
			return r, &r.idRecorder
		}
	}
	// Both hooks arm the cold paths: runDirect's, and observe's.
	hooks := Config{Hosts: 3, SizeClass: wideClass, OnRecord: func(JobRecord) {}}
	engineHooks := hooks
	engineHooks.OrderCheck = true
	return []contractPath{
		path("direct-blind", Run, Config{Hosts: 3}, work(byOrdinal{})),
		path("direct-work", Run, Config{Hosts: 3}, work(indexedLWL{})),
		path("direct-range", Run, Config{Hosts: 3}, work(rangeLWL{})),
		path("direct-one-host", Run, Config{Hosts: 1}, work(byOrdinal{})),
		path("direct-classes", Run, hooks, work(idleFirst{})),
		// lateLWL builds the work index mid-run, from busy hosts.
		path("engine-push", Run, engineHooks, fresh(func() WorkPolicy { return &lateLWL{k: 100} })),
		path("engine-range", Run, Config{Hosts: 3, OrderCheck: true}, work(rangeLWL{})),
		path("central-fcfs", Run, Config{Hosts: 3, CentralOrder: CentralFCFS}, state(func() StatePolicy { return &alternating{} })),
		path("central-sjf", Run, Config{Hosts: 3, CentralOrder: CentralSJF}, state(func() StatePolicy { return shortestOrHold{} })),
		path("ps", RunPS, Config{Hosts: 3}, work(rangeLWL{})),
		path("ps-state", RunPS, Config{Hosts: 3}, state(func() StatePolicy { return shortestQueue{} })),
		{"tags", false, func(jobs []workload.Job, _ func() bool) contractRun {
			return contractRun{tags: tags.Simulate(jobs, []float64{10, 100}, 0.1)}
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

// badRange asks for a host range past the last host.
type badRange struct{}

func (badRange) Name() string                          { return "bad-range" }
func (badRange) Assign(_ workload.Job, v WorkView) int { return v.MinWorkHostIn(0, v.Hosts()+1) }

// allocsNoMore fails unless running run on the doubled feed allocates no
// more objects than on the feed itself.
func allocsNoMore(t *testing.T, feed []workload.Job, run func(jobs []workload.Job)) {
	t.Helper()
	twice := doubled(feed)
	once := alloctest.AllocsIn(func() { run(feed) })
	more := alloctest.AllocsIn(func() { run(twice) })
	t.Logf("%d objects on %d jobs, %d on %d", once, len(feed), more, len(twice))
	if more > once {
		t.Errorf("allocated %d objects on %d jobs and %d on %d: the count grows with the run",
			once, len(feed), more, len(twice))
	}
}

// raceSkip is why the allocation checks skip under the race detector.
const raceSkip = "allocation counts are not comparable under the race detector"

func TestReadOnlyContract(t *testing.T) {
	shared := contractJobs()
	snapshot := append([]workload.Job(nil), shared...)
	paths := contractPaths()

	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			// A plain run leaves the input intact, and its policy and
			// records see arrival ordinals, not the input's IDs.
			r := p.run(shared, nil)
			unchanged(t, "plain", shared, snapshot)
			if p.server {
				if len(r.seen) != len(shared) || len(r.res.Records) != len(shared) {
					t.Fatalf("Assign saw %d jobs and %d records were kept, want %d of each", len(r.seen), len(r.res.Records), len(shared))
				}
				for i, id := range r.seen {
					if id != i {
						t.Fatalf("Assign call %d saw ID %d, want the arrival ordinal", i, id)
					}
				}
				for _, rec := range r.res.Records {
					if rec.ID < 0 || rec.ID >= len(shared) || rec.Arrival != shared[rec.ID].Arrival || rec.Size != shared[rec.ID].Size {
						t.Fatalf("record %+v does not carry its job's arrival ordinal", rec)
					}
				}

				// Interrupted at the first poll: the early exits.
				p.run(shared, func() bool { return true })
				unchanged(t, "interrupted", shared, snapshot)
			}

			// An empty feed completes nothing.
			if r := p.run(nil, nil); r.res != nil && len(r.res.Records) != 0 {
				t.Errorf("an empty feed kept %d records", len(r.res.Records))
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

			if !alloctest.Race {
				allocsNoMore(t, shared, func(jobs []workload.Job) { p.run(jobs, nil) })
			}
		})
	}

	// Refused configurations: the input is intact after these panics too.
	for _, c := range []struct {
		name, want string
		run        func(jobs []workload.Job)
	}{
		{"no-hosts", "config needs hosts > 0", func(jobs []workload.Job) {
			Run(jobs, Config{Policy: byOrdinal{}})
		}},
		{"nil-policy", "nil policy", func(jobs []workload.Job) {
			Run(jobs, Config{Hosts: 2})
		}},
		{"nan-warmup", "warmup fraction NaN", func(jobs []workload.Job) {
			Run(jobs, Config{Hosts: 2, Policy: byOrdinal{}, WarmupFraction: math.NaN()})
		}},
		{"neither-kind", `"name-only" is neither`, func(jobs []workload.Job) {
			Run(jobs, Config{Hosts: 2, Policy: nameOnly{}})
		}},
		{"ps-neither-kind", `"name-only" is neither`, func(jobs []workload.Job) {
			RunPS(jobs, Config{Hosts: 2, Policy: nameOnly{}})
		}},
		{"direct-host-out-of-range", `"central-liar" returned host -1`, func(jobs []workload.Job) {
			Run(jobs, Config{Hosts: 2, Policy: centralLiar{}})
		}},
		{"engine-host-out-of-range", `"central-liar" returned host -1`, func(jobs []workload.Job) {
			Run(jobs, Config{Hosts: 2, Policy: centralLiar{}, OrderCheck: true})
		}},
		{"ps-host-out-of-range", `"central-liar" returned host -1`, func(jobs []workload.Job) {
			RunPS(jobs, Config{Hosts: 2, Policy: centralLiar{}})
		}},
		{"ps-pull-policy", "is a pull policy", func(jobs []workload.Job) {
			RunPS(jobs, Config{Hosts: 2, Policy: toCentral{}})
		}},
		{"direct-bad-range", "range [0, 3) invalid for 2 hosts", func(jobs []workload.Job) {
			Run(jobs, Config{Hosts: 2, Policy: badRange{}})
		}},
		{"engine-bad-range", "range [0, 3) invalid for 2 hosts", func(jobs []workload.Job) {
			Run(jobs, Config{Hosts: 2, Policy: badRange{}, OrderCheck: true})
		}},
		{"ps-bad-range", "range [0, 3) invalid for 2 hosts", func(jobs []workload.Job) {
			RunPS(jobs, Config{Hosts: 2, Policy: badRange{}})
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

	// Held cores: the direct runner, held across replays as the pool hands
	// it to a sweep's cells, allocates nothing once its scratch has grown,
	// for a state-blind policy, one that reads host work through the
	// view's index, and one with a size classifier, whose class streams
	// the first replay creates.
	for _, c := range heldDirectCases(len(shared)) {
		t.Run("held-direct-"+c.name, func(t *testing.T) {
			if alloctest.Race {
				t.Skip(raceSkip)
			}
			replay, res, release := heldDirect(shared, c)
			defer release()
			replay()
			if n := alloctest.AllocsIn(replay); n != 0 {
				t.Fatalf("a held runner's replay allocated %d objects, want 0", n)
			}
			if res.Slowdown.Count() == 0 {
				t.Fatal("no jobs observed")
			}
		})
	}

	// End to end: every path runs concurrently off the one shared slice,
	// repeatedly, and must reproduce its solo run on a private copy bit
	// for bit. A write by any run would make a sibling, or a later round,
	// replay a different feed.
	golden := make([]string, len(paths))
	for i, p := range paths {
		golden[i] = p.run(append([]workload.Job(nil), shared...), nil).String()
	}
	const rounds = 3
	got := make([][rounds]string, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int, p contractPath) {
				defer wg.Done()
				got[i][r] = p.run(shared, nil).String()
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
