package server

import (
	"sync"
	"testing"

	"sita/internal/workload"
)

// These tests pin the package's read-only input contract (see the package
// doc and //sim:readonly): internal/streamcache hands one generated job
// slice to every policy at a load point, so Run, RunPS, and the TAGS
// simulator must never write the slice they are given — neither when the
// input already carries arrival ordinals nor when it does not, where each
// path stamps the ordinal on its own copy of the job.

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

	for i := range shared {
		if shared[i] != snapshot[i] {
			t.Fatalf("job %d mutated: %+v, was %+v", i, shared[i], snapshot[i])
		}
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
		for i := range shared {
			if shared[i] != snapshot[i] {
				t.Fatalf("%s: job %d mutated: %+v, was %+v", c.name, i, shared[i], snapshot[i])
			}
		}
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
