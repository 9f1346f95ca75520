package catalog

import (
	"testing"

	"sita"
	"sita/internal/alloctest"
	"sita/internal/core"
	"sita/internal/server"
	"sita/internal/workload"
)

// highWaterSlack bounds how many more objects a run may allocate on a
// feed twice as long. A policy whose picks differ between the two copies
// (Random draws different hosts for the second) can push a queue's
// backing array to one more doubling; a per-job or per-event allocation
// adds thousands.
const highWaterSlack = 2

// TestPolicyAllocations holds every policy of the table to the allocation
// contract (see server.TestReadOnlyContract), through the dispatch the
// server's own rows reach only with test policies: each policy runs
// through Run and, unless it is a pull policy, RunPS, on a feed and on the
// feed followed by a copy shifted past a full drain, and the second run
// may allocate at most highWaterSlack more objects. Designs are derived
// before the measured runs, which then build only the policy: a cold
// cutoff memo inside the window would count the search.
func TestPolicyAllocations(t *testing.T) {
	if alloctest.Race {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	const hosts = 4
	wl, err := sita.LoadWorkload("psc-c90", 1)
	if err != nil {
		t.Fatal(err)
	}
	feed := wl.JobsAtLoad(0.7, hosts, true, 1)[:6000]
	shift := feed[len(feed)-1].Arrival
	for _, j := range feed {
		shift += j.Size
	}
	twice := append(append([]workload.Job(nil), feed...), feed...)
	for i := len(feed); i < len(twice); i++ {
		twice[i].Arrival += shift
	}

	for _, r := range core.Policies() {
		fresh := func() server.Policy { return r.New(1) }
		if r.New == nil {
			_, d, err := r.Build(0.7, wl.Size, hosts, 1)
			if err != nil {
				t.Fatalf("%s: %v", r.Key, err)
			}
			fresh = d.Policy
		}
		runs := []struct {
			name string
			run  func([]workload.Job, server.Config) *server.Result
		}{{"Run", server.Run}, {"RunPS", server.RunPS}}
		if r.Pull {
			runs = runs[:1]
		}
		for _, c := range runs {
			once := alloctest.AllocsIn(func() { c.run(feed, server.Config{Hosts: hosts, Policy: fresh()}) })
			more := alloctest.AllocsIn(func() { c.run(twice, server.Config{Hosts: hosts, Policy: fresh()}) })
			t.Logf("%s %s: %d objects on %d jobs, %d on %d", r.Key, c.name, once, len(feed), more, len(twice))
			if more > once+highWaterSlack {
				t.Errorf("%s through %s allocated %d objects on %d jobs and %d on %d: the count grows with the run",
					r.Key, c.name, once, len(feed), more, len(twice))
			}
		}
	}
}
