package experiment

import (
	"reflect"
	"testing"

	"sita/internal/core"
	"sita/internal/memo"
	"sita/internal/server"
)

// withCellMemo gives the calling test its own cell memo bounded to
// maxCost and restores the shared one when the test ends. maxCost 0
// stores nothing, so every driver the test runs simulates each of its
// cells, as tests that compare two runs of a driver need.
func withCellMemo(t *testing.T, maxCost int64) {
	t.Helper()
	saved := cellMemo
	cellMemo = memo.New[cellKey](maxCost, resultBytes)
	t.Cleanup(func() { cellMemo = saved })
}

// directRun is what simulate stands in for: a fresh policy from spec and
// a plain server.Run over the stream.
func directRun(t *testing.T, cfg Config, s stream, spec policySpec, keepRecords bool) *server.Result {
	t.Helper()
	p, err := spec.build(s.load, cfg.Profile.MustSizeDist(), s.hosts, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return server.Run(s.jobs(), server.Config{
		Hosts: s.hosts, Policy: p, WarmupFraction: cfg.Warmup, KeepRecords: keepRecords,
	})
}

// TestCellMemoHitEqualsRun checks that a memoized cell, on its miss and
// on the hit that follows, equals a direct server.Run field by field,
// with and without kept records.
func TestCellMemoHitEqualsRun(t *testing.T) {
	withCellMemo(t, cellMaxBytes)
	cfg := testConfig()
	cfg.Jobs = 4000
	tr, err := cfg.buildTrace()
	if err != nil {
		t.Fatal(err)
	}
	size := cfg.Profile.MustSizeDist()
	s := stream{tr, 0.7, 2, true, cfg.Seed}
	for _, spec := range []policySpec{specRandom(), specLWL(), specSITA(core.SITAUFair)} {
		for _, keep := range []bool{false, true} {
			miss, err := cfg.simulate(s, size, spec, keep)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := cfg.simulate(s, size, spec, keep)
			if err != nil {
				t.Fatal(err)
			}
			if hit != miss {
				t.Errorf("%s records=%v: second call simulated again", spec.name, keep)
			}
			if want := directRun(t, cfg, s, spec, keep); !reflect.DeepEqual(hit, want) {
				t.Errorf("%s records=%v: memoized %+v, direct run %+v", spec.name, keep, hit, want)
			}
			if keep != (len(hit.Records) > 0) {
				t.Errorf("%s records=%v: %d records", spec.name, keep, len(hit.Records))
			}
		}
	}
	if st := cellMemo.Stats(); st.Misses != 6 || st.Hits != 6 {
		t.Errorf("memo stats %+v, want 6 misses and 6 hits", st)
	}
}

// TestCellMemoSeparatesSeeds checks that Random cells of two seeds on
// one stream stay apart, and that each equals its direct run.
func TestCellMemoSeparatesSeeds(t *testing.T) {
	withCellMemo(t, cellMaxBytes)
	a := testConfig()
	a.Jobs = 4000
	b := a
	b.Seed = a.Seed + 1
	tr, err := a.buildTrace()
	if err != nil {
		t.Fatal(err)
	}
	size := a.Profile.MustSizeDist()
	s := stream{tr, 0.7, 2, true, a.Seed} // one stream for both seeds
	resA, _ := a.simulate(s, size, specRandom(), false)
	resB, _ := b.simulate(s, size, specRandom(), false)
	if resA == resB || resA.Slowdown.Mean() == resB.Slowdown.Mean() {
		t.Fatalf("Random under seeds %d and %d shared a cell", a.Seed, b.Seed)
	}
	if !reflect.DeepEqual(resB, directRun(t, b, s, specRandom(), false)) {
		t.Errorf("Random under seed %d differs from its direct run", b.Seed)
	}
	if st := cellMemo.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("memo stats %+v, want 2 misses and no hit", st)
	}
}

// TestClearMemosSimulatesAgain checks what the benchmarks rely on: after
// ClearMemos, a second run of a driver simulates every cell again, as the
// first run did.
func TestClearMemosSimulatesAgain(t *testing.T) {
	withCellMemo(t, cellMaxBytes)
	cfg := testConfig()
	cfg.Jobs = 3000
	var misses []uint64
	for run := 0; run < 2; run++ {
		ClearMemos()
		before := cellMemo.Stats()
		if _, err := Figure2(cfg); err != nil {
			t.Fatal(err)
		}
		after := cellMemo.Stats()
		if after.Hits != before.Hits {
			t.Errorf("run %d answered %d cells from memory", run, after.Hits-before.Hits)
		}
		misses = append(misses, after.Misses-before.Misses)
	}
	if misses[0] == 0 || misses[1] != misses[0] {
		t.Errorf("fig2 simulated %d cells, then %d after ClearMemos", misses[0], misses[1])
	}
}

// TestCellMemoSharedCells runs drivers that share cells one after the
// other and reads the memo's counters: each shared cell is simulated by
// the first driver only, and the second simulates just its own cells.
func TestCellMemoSharedCells(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = 3000
	cfg.Workers = 2
	loads := uint64(len(cfg.Loads))
	pairs := []struct {
		first, second string
		misses, hits  uint64 // the second driver's counts
	}{
		// fig4's SITA-E curve is fig2's.
		{"fig2", "fig4", 2 * loads, loads},
		// response-time's Random, LWL and SITA-U-fair cells are tags'.
		{"tags", "response-time", 2 * loads, 3 * loads},
		// tail-latency keeps records like fairness-profile; three
		// policies are common to both.
		{"fairness-profile", "tail-latency", 2, 3},
		// multi-cutoff's grouped design at h = 4 and 8 is fig6's.
		{"fig6", "multi-cutoff", 7, 2},
	}
	drivers := Drivers()
	for _, p := range pairs {
		t.Run(p.first+"+"+p.second, func(t *testing.T) {
			withCellMemo(t, cellMaxBytes)
			if _, err := drivers[p.first](cfg); err != nil {
				t.Fatal(err)
			}
			before := cellMemo.Stats()
			if _, err := drivers[p.second](cfg); err != nil {
				t.Fatal(err)
			}
			after := cellMemo.Stats()
			misses, hits := after.Misses-before.Misses, after.Hits-before.Hits
			if misses != p.misses || hits != p.hits {
				t.Errorf("%s after %s: %d simulated, %d from memory; want %d and %d",
					p.second, p.first, misses, hits, p.misses, p.hits)
			}
		})
	}
}
