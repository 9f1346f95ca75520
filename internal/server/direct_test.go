package server

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sita/internal/workload"
)

// scripted replays a fixed job→host assignment (e.g. one recovered from a
// golden record stream). State-blind by construction, so it legitimately
// claims the Oblivious capability.
type scripted struct{ hosts []int }

func (*scripted) Name() string                        { return "scripted" }
func (s *scripted) Assign(j workload.Job, _ View) int { return s.hosts[j.ID] }
func (*scripted) Oblivious() bool                     { return true }

// liar claims obliviousness but reads system state — the contract
// violation the tripwire view must catch.
type liar struct{ method string }

func (*liar) Name() string { return "liar" }
func (l *liar) Assign(_ workload.Job, v View) int {
	switch l.method {
	case "NumJobs":
		return v.NumJobs(0) * 0
	case "WorkLeft":
		_ = v.WorkLeft(0)
	case "Idle":
		_ = v.Idle(0)
	case "MinWorkHost":
		return v.MinWorkHost()
	case "MinWorkHostIn":
		return v.MinWorkHostIn(0, v.Hosts())
	case "MinJobsHost":
		return v.MinJobsHost()
	case "NextIdleHost":
		_ = v.NextIdleHost()
	}
	return 0
}
func (*liar) Oblivious() bool { return true }

// toHostZero is honestly oblivious and trivial.
type toHostZero struct{}

func (toHostZero) Name() string                  { return "to-host-zero" }
func (toHostZero) Assign(workload.Job, View) int { return 0 }
func (toHostZero) Oblivious() bool               { return true }

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

// TestDirectGoldenReplay replays golden record streams through RunDirect:
// the scripted policy re-issues each golden stream's host assignments, and
// the direct recurrence must reproduce the closure-based engine's exact
// bytes — IDs, hosts, and bit-exact hex start/departure floats in the same
// emission order. Only the FCFS-order goldens qualify: push-lwl and
// central-fcfs serve jobs per host in arrival order (a central FCFS pull
// starts each job at max(predecessor finish, arrival) — Lindley again), and
// ties-push-lwl adds the exact-coincidence traps. The SJF and PS goldens
// reorder service within a host and stay engine-only.
func TestDirectGoldenReplay(t *testing.T) {
	cases := []struct {
		name  string
		jobs  []workload.Job
		hosts int
	}{
		{"push-lwl", goldenJobs(42, 3000), 3},
		{"central-fcfs", goldenJobs(43, 3000), 3},
		{"ties-push-lwl", tieJobs(), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			script := &scripted{hosts: parseGoldenHosts(t, tc.name, len(tc.jobs))}
			res := RunDirect(tc.jobs, Config{Hosts: tc.hosts, Policy: script, KeepRecords: true})
			got := formatRecords(res.Records)
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("direct replay diverged from %s.golden; first lines:\ngot:  %.200s\nwant: %.200s",
					tc.name, got, want)
			}
		})
	}
}

// TestDirectViewTripwire proves the direct path's View fails loudly on
// every state query when a policy's Oblivious claim is false.
func TestDirectViewTripwire(t *testing.T) {
	jobs := []workload.Job{{Arrival: 0, Size: 1}}
	for _, method := range []string{
		"NumJobs", "WorkLeft", "Idle",
		"MinWorkHost", "MinWorkHostIn", "MinJobsHost", "NextIdleHost",
	} {
		t.Run(method, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("View.%s did not panic on the direct path", method)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "claims Oblivious") || !strings.Contains(msg, method) {
					t.Fatalf("panic %v does not name the violated contract and method", r)
				}
			}()
			RunDirect(jobs, Config{Hosts: 2, Policy: &liar{method: method}})
		})
	}
	// Hosts() is configuration, not state: no panic.
	res := RunDirect(jobs, Config{Hosts: 2, Policy: toHostZero{}, KeepRecords: true})
	if len(res.Records) != 1 || res.Records[0].Host != 0 {
		t.Fatalf("honest oblivious policy failed on the direct path: %+v", res.Records)
	}
}

// TestDirectDispatch pins Run's dispatch rule by observing which path a
// lying policy dies on: by default Run hands it the tripwire view (panic);
// with the order check or an interrupt probe installed it gets the
// engine's real view (no panic).
func TestDirectDispatch(t *testing.T) {
	jobs := []workload.Job{{Arrival: 0, Size: 1}, {Arrival: 1, Size: 2}}
	runPanics := func(cfg Config) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		Run(jobs, cfg)
		return
	}
	if !runPanics(Config{Hosts: 2, Policy: &liar{method: "NumJobs"}}) {
		t.Fatal("Run did not take the direct path for a claimed-oblivious policy")
	}
	ordered := Config{Hosts: 2, Policy: &liar{method: "NumJobs"}, OrderCheck: true}
	if runPanics(ordered) {
		t.Fatal("Run took the direct path despite the order check")
	}
	if DirectEligible(ordered) {
		t.Fatal("DirectEligible true with the order check installed")
	}
	interrupted := Config{Hosts: 2, Policy: &liar{method: "NumJobs"}, Interrupt: func() bool { return false }}
	if runPanics(interrupted) {
		t.Fatal("Run took the direct path despite an interrupt probe")
	}
	if DirectEligible(interrupted) {
		t.Fatal("DirectEligible true with an interrupt probe installed")
	}
	if !DirectEligible(Config{Hosts: 2, Policy: toHostZero{}}) {
		t.Fatal("DirectEligible false for an oblivious policy with no probe")
	}
	if DirectEligible(Config{Hosts: 2, Policy: goldenLWL{}}) {
		t.Fatal("DirectEligible true for a policy without the capability")
	}
}

// TestRunDirectRefusesNonOblivious pins RunDirect's own guard.
func TestRunDirectRefusesNonOblivious(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunDirect accepted a non-oblivious policy")
		}
	}()
	RunDirect([]workload.Job{{Arrival: 0, Size: 1}}, Config{Hosts: 2, Policy: goldenLWL{}})
}

// TestRunDirectRefusesUnsortedArrivals pins the sorted-input contract
// shared with Simulate.
func TestRunDirectRefusesUnsortedArrivals(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunDirect accepted out-of-order arrivals")
		}
	}()
	RunDirect([]workload.Job{{Arrival: 5, Size: 1}, {Arrival: 1, Size: 1}},
		Config{Hosts: 2, Policy: toHostZero{}})
}

// TestDirectEngineParityInPackage is the in-package differential: a
// round-robin-by-ID script through both paths on the tie-trap stream and a
// heavy-tailed stream, full Result equality including warmup filtering and
// per-class streams. The cross-package differential over the real policies
// and trace profiles lives in internal/policy.
func TestDirectEngineParityInPackage(t *testing.T) {
	streams := map[string][]workload.Job{
		"ties":  tieJobs(),
		"heavy": goldenJobs(47, 4000),
	}
	for name, jobs := range streams {
		t.Run(name, func(t *testing.T) {
			mk := func() Config {
				hosts := make([]int, len(jobs))
				for i := range hosts {
					hosts[i] = i % 3
				}
				return Config{
					Hosts:          3,
					Policy:         &scripted{hosts: hosts},
					WarmupFraction: 0.25,
					KeepRecords:    true,
					SizeClass:      func(size float64) int { return int(size) & 1 },
				}
			}
			direct := RunDirect(jobs, mk())
			cfg := mk()
			cfg.OrderCheck = true
			engine := Run(jobs, cfg)
			if got, want := formatRecords(direct.Records), formatRecords(engine.Records); got != want {
				t.Fatalf("record streams differ:\ndirect: %.300s\nengine: %.300s", got, want)
			}
			if direct.Slowdown != engine.Slowdown || direct.Response != engine.Response || direct.Wait != engine.Wait {
				t.Fatalf("delay streams differ: %+v vs %+v", direct, engine)
			}
			if direct.Horizon != engine.Horizon {
				t.Fatalf("horizons differ: %v vs %v", direct.Horizon, engine.Horizon)
			}
		})
	}
}
