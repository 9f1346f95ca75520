package server

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sita/internal/sim"
	"sita/internal/stats"
	"sita/internal/workload"
)

// scripted replays a fixed job→host assignment (e.g. one recovered from a
// golden record stream). State-blind by construction, so a work policy.
type scripted struct{ hosts []int }

func (*scripted) Name() string                            { return "scripted" }
func (s *scripted) Assign(j workload.Job, _ WorkView) int { return s.hosts[j.ID] }

// centralLiar is a work policy that breaks its contract by returning
// Central, which every path must refuse rather than hold the job.
type centralLiar struct{}

func (centralLiar) Name() string                      { return "central-liar" }
func (centralLiar) Assign(workload.Job, WorkView) int { return Central }

// idleFirst is a work policy that reads Idle as well: the lowest idle
// host if any, else the least WorkLeft. A host whose departure falls
// exactly at the arrival has zero work left but is not idle yet, so this
// pick differs from LWL's exactly at the ties the direct path must
// reproduce.
type idleFirst struct{}

func (idleFirst) Name() string { return "idle-first" }
func (idleFirst) Assign(_ workload.Job, v WorkView) int {
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

// lateLWL is a work policy that round-robins its first k jobs without a
// query and then turns Least-Work-Left, so the work index is first built
// mid-run from clocks the state-blind picks advanced.
type lateLWL struct{ k, n int }

func (*lateLWL) Name() string { return "late-lwl" }
func (p *lateLWL) Assign(_ workload.Job, v WorkView) int {
	p.n++
	if p.n <= p.k {
		return p.n % v.Hosts()
	}
	return v.MinWorkHost()
}

// rangeOrRobin is a work policy that alternates a least-work pick among
// hosts 1.. with a round-robin pick over all hosts, so the index must
// follow clocks advanced by picks that never query it.
type rangeOrRobin struct{ n int }

func (*rangeOrRobin) Name() string { return "range-or-robin" }
func (p *rangeOrRobin) Assign(_ workload.Job, v WorkView) int {
	p.n++
	if p.n%2 == 0 {
		return v.MinWorkHostIn(1, v.Hosts())
	}
	return p.n % v.Hosts()
}

// toHostZero is a state-blind, trivial work policy.
type toHostZero struct{}

func (toHostZero) Name() string                      { return "to-host-zero" }
func (toHostZero) Assign(workload.Job, WorkView) int { return 0 }

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
		{"push-lwl/work-index", "push-lwl", goldenJobs(42, 3000), 3, indexedLWL{}},
		{"push-lwl/work-scan", "push-lwl", goldenJobs(42, 3000), 3, goldenLWL{}},
		{"ties-push-lwl/work-index", "ties-push-lwl", tieJobs(), 2, indexedLWL{}},
		{"ties-push-lwl/work-scan", "ties-push-lwl", tieJobs(), 2, goldenLWL{}},
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

// TestDirectWorkViewTripwire proves every path fails loudly, naming the
// policy, when a work policy returns Central — the engine must not hold
// the job centrally as it would for a state policy, and PS must not call
// it a pull policy — and that the direct path otherwise answers the
// host-work queries and the host count.
func TestDirectWorkViewTripwire(t *testing.T) {
	jobs := []workload.Job{{Arrival: 0, Size: 1}, {Arrival: 0.5, Size: 1}}
	t.Run("Central", func(t *testing.T) {
		liar := Config{Hosts: 2, Policy: centralLiar{}}
		engine := liar
		engine.OrderCheck = true
		for name, run := range map[string]func(){
			"direct": func() { Run(jobs, liar) },
			"engine": func() { Run(jobs, engine) },
			"ps":     func() { RunPS(jobs, liar) },
		} {
			func() {
				defer func() {
					r := recover()
					msg, ok := r.(string)
					if !ok || !strings.Contains(msg, `"central-liar"`) || !strings.Contains(msg, "returned host -1") {
						t.Fatalf("%s: panic %v does not name the policy and the returned Central", name, r)
					}
				}()
				run()
			}()
		}
	})
	// The second job arrives while host 0 still works: LWL picks host 1.
	res := runDirect(jobs, Config{Hosts: 2, Policy: indexedLWL{}, KeepRecords: true})
	if len(res.Records) != 2 || res.Records[0].Host != 0 || res.Records[1].Host != 1 {
		t.Fatalf("work policy misrouted on the direct path: %+v", res.Records)
	}
	// A policy that reads nothing runs on the same view.
	res = runDirect(jobs, Config{Hosts: 2, Policy: toHostZero{}, KeepRecords: true})
	if len(res.Records) != 2 || res.Records[0].Host != 0 || res.Records[1].Host != 0 {
		t.Fatalf("state-blind policy misrouted on the direct path: %+v", res.Records)
	}
}

// TestDirectDispatch pins Run's dispatch rule by observing which path a
// run took through Result.MeanQueueLen, which only the engine accrues:
// the second job queues behind the first, so an engine run reports a
// positive mean queue length and a direct run 0. By default Run hands a
// work policy to the direct path, an interrupt probe included; the order
// check pins the engine, and a state policy always gets it.
func TestDirectDispatch(t *testing.T) {
	jobs := []workload.Job{{Arrival: 0, Size: 2}, {Arrival: 1, Size: 2}}
	plain := Config{Hosts: 2, Policy: toHostZero{}}
	ordered, interrupted := plain, plain
	ordered.OrderCheck = true
	interrupted.Interrupt = func() bool { return false }
	for _, c := range []struct {
		name   string
		cfg    Config
		direct bool
	}{
		{"work policy", plain, true},
		{"host-work-reading work policy", Config{Hosts: 2, Policy: indexedLWL{}}, true},
		{"interrupt probe", interrupted, true},
		{"order check", ordered, false},
		{"state policy", Config{Hosts: 2, Policy: toHost(0)}, false},
	} {
		if DirectEligible(c.cfg) != c.direct {
			t.Errorf("%s: DirectEligible %v, want %v", c.name, !c.direct, c.direct)
		}
		if tookDirect := Run(jobs, c.cfg).MeanQueueLen == 0; tookDirect != c.direct {
			t.Errorf("%s: Run took the direct path: %v, want %v", c.name, tookDirect, c.direct)
		}
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
//
// Each run sets one of three size classifiers: labels inside the tally's
// cached range, negative labels, and labels past that range. The "warmup"
// stream's one giant job lies in the warmup prefix, so the class it maps
// to must stay absent from both paths' tallies.
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
	warm := append([]workload.Job(nil), traps...)
	warm[10].Size = giantSize
	streams := map[string][]workload.Job{
		"ties":    tieJobs(),
		"heavy":   goldenJobs(47, 4000),
		"tietrap": traps,
		"warmup":  warm,
	}
	classifiers := map[string]func(float64) int{
		"parity":   func(size float64) int { return int(size) & 1 },
		"negative": func(size float64) int { return -1 - int(size)%3 },
		"wide":     wideClass,
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
				for cname, classify := range classifiers {
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
							SizeClass:      classify,
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
					if diff := classDiff(direct.Classes, engine.Classes); diff != "" {
						t.Fatalf("%s, %s classes: %s", p.Name(), cname, diff)
					}
					if name == "warmup" && cname == "wide" {
						for path, res := range []*Result{direct, engine} {
							if res.Classes.Class(giantClass) != nil || slices.Contains(res.Classes.Classes(), giantClass) {
								t.Fatalf("%s, path %d: a class seen only in warmup was tallied: %v", p.Name(), path, res.Classes.Classes())
							}
						}
					}
				}
			}
		})
	}
}

// giantSize marks a job the "wide" classifier gives a class of its own,
// giantClass; wideClass spreads the other sizes over labels inside and
// past the class tally's cached range (1 to 3 map to 7, 14 and 21).
const (
	giantSize  = 1e6
	giantClass = 999
)

func wideClass(size float64) int {
	if size >= giantSize {
		return giantClass
	}
	return 7 * int(size)
}

// classDiff compares two class tallies bit for bit — the label sets, then
// every class's Stream — and describes the first difference, or returns
// "" when they are identical.
func classDiff(a, b *stats.ClassTally) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("tally presence differs: %v vs %v", a != nil, b != nil)
		}
		return ""
	}
	la, lb := a.Classes(), b.Classes()
	if !slices.Equal(la, lb) {
		return fmt.Sprintf("labels differ: %v vs %v", la, lb)
	}
	for _, c := range la {
		if sa, sb := *a.Class(c), *b.Class(c); sa != sb {
			return fmt.Sprintf("class %d streams differ: %+v vs %+v", c, sa, sb)
		}
	}
	return ""
}
