package server

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sita/internal/sim"
	"sita/internal/workload"
)

// scripted replays a fixed job→host assignment (e.g. one recovered from a
// golden record stream). State-blind by construction, so it legitimately
// claims the WorkOnly capability.
type scripted struct{ hosts []int }

func (*scripted) Name() string                        { return "scripted" }
func (s *scripted) Assign(j workload.Job, _ View) int { return s.hosts[j.ID] }
func (*scripted) WorkOnly() bool                      { return true }

// workLiar claims the work-only capability but reads job counts or the
// idle freelist (method), or returns Central (method "Central") — the
// violations the work view and the replay loop must catch.
type workLiar struct{ method string }

func (*workLiar) Name() string { return "work-liar" }
func (l *workLiar) Assign(_ workload.Job, v View) int {
	switch l.method {
	case "NumJobs":
		return v.NumJobs(0) * 0
	case "MinJobsHost":
		return v.MinJobsHost()
	case "NextIdleHost":
		_ = v.NextIdleHost()
	case "Central":
		return Central
	}
	return v.MinWorkHost()
}
func (*workLiar) WorkOnly() bool { return true }

// lateLiar claims the work-only capability and keeps it for its first
// k jobs, asking every host-work query the claim allows, then reads a
// forbidden query (method) — so the tripwire must fire on a view whose
// work index is already built and kept current.
type lateLiar struct {
	method string
	k, n   int
}

func (*lateLiar) Name() string { return "late-liar" }
func (l *lateLiar) Assign(_ workload.Job, v View) int {
	l.n++
	if l.n > l.k {
		switch l.method {
		case "NumJobs":
			return v.NumJobs(0) * 0
		case "MinJobsHost":
			return v.MinJobsHost()
		case "NextIdleHost":
			_ = v.NextIdleHost()
		}
	}
	_ = v.WorkLeft(0)
	_ = v.Idle(v.Hosts() - 1)
	_ = v.MinWorkHostIn(0, v.Hosts())
	return v.MinWorkHost()
}
func (*lateLiar) WorkOnly() bool { return true }

// workLWL is an honest work-only policy: Least-Work-Left through the
// view's work index.
type workLWL struct{}

func (workLWL) Name() string                      { return "work-lwl" }
func (workLWL) Assign(_ workload.Job, v View) int { return v.MinWorkHost() }
func (workLWL) WorkOnly() bool                    { return true }

// workScanLWL is the golden streams' scan LWL claiming the work-only
// capability, so it reads WorkLeft through the direct path's work view.
type workScanLWL struct{ goldenLWL }

func (workScanLWL) WorkOnly() bool { return true }

// idleFirst is an honest work-only policy that reads Idle as well: the
// lowest idle host if any, else the least WorkLeft. A host whose
// departure falls exactly at the arrival has zero work left but is not
// idle yet, so this pick differs from LWL's exactly at the ties the
// direct path must reproduce.
type idleFirst struct{}

func (idleFirst) Name() string { return "idle-first" }
func (idleFirst) Assign(_ workload.Job, v View) int {
	best, bestW := -1, 0.0
	for i := 0; i < v.Hosts(); i++ {
		if v.Idle(i) {
			return i
		}
		if w := v.WorkLeft(i); best < 0 || w < bestW {
			best, bestW = i, w
		}
	}
	return best
}
func (idleFirst) WorkOnly() bool { return true }

// lateLWL is an honest work-only policy that round-robins its first k
// jobs without a query and then turns Least-Work-Left, so the work index
// is first built mid-run from clocks the state-blind picks advanced.
type lateLWL struct{ k, n int }

func (*lateLWL) Name() string { return "late-lwl" }
func (p *lateLWL) Assign(_ workload.Job, v View) int {
	p.n++
	if p.n <= p.k {
		return p.n % v.Hosts()
	}
	return v.MinWorkHost()
}
func (*lateLWL) WorkOnly() bool { return true }

// rangeOrRobin is an honest work-only policy that alternates a
// least-work pick among hosts 1.. with a round-robin pick over all hosts,
// so the index must follow clocks advanced by picks that never query it.
type rangeOrRobin struct{ n int }

func (*rangeOrRobin) Name() string { return "range-or-robin" }
func (p *rangeOrRobin) Assign(_ workload.Job, v View) int {
	p.n++
	if p.n%2 == 0 {
		return v.MinWorkHostIn(1, v.Hosts())
	}
	return p.n % v.Hosts()
}
func (*rangeOrRobin) WorkOnly() bool { return true }

// toHostZero is honestly state-blind and trivial.
type toHostZero struct{}

func (toHostZero) Name() string                  { return "to-host-zero" }
func (toHostZero) Assign(workload.Job, View) int { return 0 }
func (toHostZero) WorkOnly() bool                { return true }

// parseGoldenHosts recovers the job→host assignment from a golden record
// stream (lines of "ID Host Arrival Size Start Departure").
func parseGoldenHosts(t *testing.T, name string, n int) []int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	hosts := make([]int, n)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		id, err1 := strconv.Atoi(f[0])
		h, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("bad golden line %q", line)
		}
		hosts[id] = h
	}
	return hosts
}

// TestDirectGoldenReplay replays golden record streams through runDirect:
// the scripted policy re-issues each golden stream's host assignments, and
// the direct recurrence must reproduce the closure-based engine's exact
// bytes — IDs, hosts, and bit-exact hex start/departure floats in the same
// emission order. Only the FCFS-order goldens qualify: push-lwl and
// central-fcfs serve jobs per host in arrival order (a central FCFS pull
// starts each job at max(predecessor finish, arrival) — Lindley again), and
// ties-push-lwl adds the exact-coincidence traps. The SJF and PS goldens
// reorder service within a host and stay engine-only. The LWL goldens are
// also replayed through the work view itself, with Least-Work-Left
// choosing hosts from the direct path's clocks — by its index and by a
// WorkLeft scan — rather than from a script.
func TestDirectGoldenReplay(t *testing.T) {
	cases := []struct {
		name, golden string
		jobs         []workload.Job
		hosts        int
		policy       Policy // nil: the golden stream's own assignment, scripted
	}{
		{"push-lwl", "push-lwl", goldenJobs(42, 3000), 3, nil},
		{"central-fcfs", "central-fcfs", goldenJobs(43, 3000), 3, nil},
		{"ties-push-lwl", "ties-push-lwl", tieJobs(), 2, nil},
		{"push-lwl/work-index", "push-lwl", goldenJobs(42, 3000), 3, workLWL{}},
		{"push-lwl/work-scan", "push-lwl", goldenJobs(42, 3000), 3, workScanLWL{}},
		{"ties-push-lwl/work-index", "ties-push-lwl", tieJobs(), 2, workLWL{}},
		{"ties-push-lwl/work-scan", "ties-push-lwl", tieJobs(), 2, workScanLWL{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.policy
			if p == nil {
				p = &scripted{hosts: parseGoldenHosts(t, tc.golden, len(tc.jobs))}
			}
			res := runDirect(tc.jobs, Config{Hosts: tc.hosts, Policy: p, KeepRecords: true})
			got := formatRecords(res.Records)
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("direct replay diverged from %s.golden; first lines:\ngot:  %.200s\nwant: %.200s",
					tc.golden, got, want)
			}
		})
	}
}

// TestDirectWorkViewTripwire proves the direct path's view fails loudly,
// naming the policy, when a work-only policy reads what its claim rules
// out or returns Central, and otherwise answers the host-work queries and
// the host count.
func TestDirectWorkViewTripwire(t *testing.T) {
	jobs := []workload.Job{{Arrival: 0, Size: 1}, {Arrival: 0.5, Size: 1}}
	for _, c := range []struct{ method, want string }{
		{"NumJobs", "claims WorkOnly but read View.NumJobs"},
		{"MinJobsHost", "claims WorkOnly but read View.MinJobsHost"},
		{"NextIdleHost", "claims WorkOnly but read View.NextIdleHost"},
		{"Central", "returned host -1"},
	} {
		t.Run(c.method, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s did not panic on the direct path", c.method)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, `"work-liar"`) || !strings.Contains(msg, c.want) {
					t.Fatalf("panic %v does not name the policy and the violation %q", r, c.want)
				}
			}()
			runDirect(jobs, Config{Hosts: 2, Policy: &workLiar{method: c.method}})
		})
	}
	// The second job arrives while host 0 still works: LWL picks host 1.
	res := runDirect(jobs, Config{Hosts: 2, Policy: workLWL{}, KeepRecords: true})
	if len(res.Records) != 2 || res.Records[0].Host != 0 || res.Records[1].Host != 1 {
		t.Fatalf("honest work-only policy misrouted on the direct path: %+v", res.Records)
	}
	// A policy that reads nothing runs on the same view.
	res = runDirect(jobs, Config{Hosts: 2, Policy: toHostZero{}, KeepRecords: true})
	if len(res.Records) != 2 || res.Records[0].Host != 0 || res.Records[1].Host != 0 {
		t.Fatalf("state-blind policy misrouted on the direct path: %+v", res.Records)
	}
}

// TestDirectViewTripwire proves the direct path's view answers every
// host-work query a work-only claim allows and still fails loudly,
// naming the policy and the query, when the policy later reads job
// counts or the idle freelist.
func TestDirectViewTripwire(t *testing.T) {
	jobs := []workload.Job{{Arrival: 0, Size: 1}, {Arrival: 0.5, Size: 1}, {Arrival: 3, Size: 1}, {Arrival: 3.5, Size: 2}}
	for _, method := range []string{"NumJobs", "MinJobsHost", "NextIdleHost"} {
		t.Run(method, func(t *testing.T) {
			p := &lateLiar{method: method, k: 3}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("View.%s did not panic on the direct path", method)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, `"late-liar"`) || !strings.Contains(msg, "claims WorkOnly but read View."+method) {
					t.Fatalf("panic %v does not name the policy and View.%s", r, method)
				}
				if p.n != p.k+1 {
					t.Fatalf("panicked at job %d, want job %d (the first forbidden read)", p.n, p.k+1)
				}
			}()
			runDirect(jobs, Config{Hosts: 2, Policy: p})
		})
	}
}

// TestDirectDispatch pins Run's dispatch rule by observing which path a
// lying policy dies on: by default Run hands it the direct path's view
// (panic); with the order check or an interrupt probe installed it gets
// the engine's real view (no panic).
func TestDirectDispatch(t *testing.T) {
	jobs := []workload.Job{{Arrival: 0, Size: 1}, {Arrival: 1, Size: 2}}
	runPanics := func(cfg Config) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		Run(jobs, cfg)
		return
	}
	if !runPanics(Config{Hosts: 2, Policy: &workLiar{method: "NumJobs"}}) {
		t.Fatal("Run did not take the direct path for a claimed work-only policy")
	}
	ordered := Config{Hosts: 2, Policy: &workLiar{method: "NumJobs"}, OrderCheck: true}
	if runPanics(ordered) {
		t.Fatal("Run took the direct path despite the order check")
	}
	if DirectEligible(ordered) {
		t.Fatal("DirectEligible true with the order check installed")
	}
	interrupted := Config{Hosts: 2, Policy: &workLiar{method: "NumJobs"}, Interrupt: func() bool { return false }}
	if runPanics(interrupted) {
		t.Fatal("Run took the direct path despite an interrupt probe")
	}
	if DirectEligible(interrupted) {
		t.Fatal("DirectEligible true with an interrupt probe installed")
	}
	if !DirectEligible(Config{Hosts: 2, Policy: toHostZero{}}) {
		t.Fatal("DirectEligible false for a state-blind policy with no probe")
	}
	if !DirectEligible(Config{Hosts: 2, Policy: workLWL{}}) {
		t.Fatal("DirectEligible false for a work-only policy with no probe")
	}
	if DirectEligible(Config{Hosts: 2, Policy: goldenLWL{}}) {
		t.Fatal("DirectEligible true for a policy without the capability")
	}
}

// TestRunDirectRefusesUnsortedArrivals pins the sorted-input contract
// the direct path shares with Simulate.
func TestRunDirectRefusesUnsortedArrivals(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("the direct path accepted out-of-order arrivals")
		}
	}()
	runDirect([]workload.Job{{Arrival: 5, Size: 1}, {Arrival: 1, Size: 1}},
		Config{Hosts: 2, Policy: toHostZero{}})
}

// TestDirectEngineParityInPackage is the in-package differential: a
// round-robin-by-ID script, the idleFirst scan, and two policies whose
// first argmin query comes after state-blind picks (lateLWL, which builds
// the work index mid-run, and rangeOrRobin, which keeps advancing clocks
// between queries) through plain Run and the engine on the tie-trap
// streams and a heavy-tailed stream, full Result equality including
// warmup filtering and per-class streams. The cross-package differential
// over the real policies and trace profiles lives in internal/policy.
func TestDirectEngineParityInPackage(t *testing.T) {
	// Integer arrivals and sizes at about 2/3 load make departures land
	// exactly on later arrivals while other hosts sit idle, so a host
	// draining at the arrival instant meets idle ones.
	rng := sim.NewRNG(49, 0)
	traps := make([]workload.Job, 2000)
	at := 0.0
	for i := range traps {
		at += float64(rng.IntN(3))
		traps[i] = workload.Job{ID: i, Arrival: at, Size: float64(1 + rng.IntN(3))}
	}
	streams := map[string][]workload.Job{
		"ties":    tieJobs(),
		"heavy":   goldenJobs(47, 4000),
		"tietrap": traps,
	}
	for name, jobs := range streams {
		t.Run(name, func(t *testing.T) {
			script := make([]int, len(jobs))
			for i := range script {
				script[i] = i % 3
			}
			for _, build := range []func() Policy{
				func() Policy { return &scripted{hosts: script} },
				func() Policy { return idleFirst{} },
				func() Policy { return &lateLWL{k: 50} },
				func() Policy { return &rangeOrRobin{} },
			} {
				p := build()
				// seen holds each path's full emission stream, warmup
				// included: KeepRecords drops the warmup prefix, where a
				// mid-run index build can diverge and recouple.
				var seen [2][]JobRecord
				mk := func(engine bool) Config {
					path := 0
					if engine {
						path = 1
					}
					return Config{
						Hosts:          3,
						Policy:         build(),
						WarmupFraction: 0.25,
						KeepRecords:    true,
						SizeClass:      func(size float64) int { return int(size) & 1 },
						OrderCheck:     engine,
						OnRecord:       func(r JobRecord) { seen[path] = append(seen[path], r) },
					}
				}
				if !DirectEligible(mk(false)) {
					t.Fatalf("%s: plain Run would not take the direct path", p.Name())
				}
				direct := Run(jobs, mk(false))
				engine := Run(jobs, mk(true))
				if got, want := formatRecords(seen[0]), formatRecords(seen[1]); got != want {
					t.Fatalf("%s: emission streams differ:\ndirect: %.300s\nengine: %.300s", p.Name(), got, want)
				}
				if got, want := formatRecords(direct.Records), formatRecords(engine.Records); got != want {
					t.Fatalf("%s: kept records differ:\ndirect: %.300s\nengine: %.300s", p.Name(), got, want)
				}
				if direct.Slowdown != engine.Slowdown || direct.Response != engine.Response || direct.Wait != engine.Wait {
					t.Fatalf("%s: delay streams differ: %+v vs %+v", p.Name(), direct, engine)
				}
				if direct.Horizon != engine.Horizon {
					t.Fatalf("%s: horizons differ: %v vs %v", p.Name(), direct.Horizon, engine.Horizon)
				}
			}
		})
	}
}
