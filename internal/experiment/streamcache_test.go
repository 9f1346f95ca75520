package experiment

import (
	"testing"

	"sita/internal/streamcache"
)

// TestCacheParityAndSharing is the stream cache's contract with the golden
// results: a figure driver must produce byte-identical CSV with the cache
// on and turned off (SetMaxBytes(0)), and with the cache on, a multi-policy sweep must
// generate each distinct (load, seed) stream once — not once per policy.
func TestCacheParityAndSharing(t *testing.T) {
	withCellMemo(t, 0) // every cell asks the stream cache
	cfg := testConfig()
	cfg.Jobs = 6000
	cfg.Workers = 4

	before := streamcache.Shared.Stats()
	cached := renderAll(t, Figure4, cfg)
	after := streamcache.Shared.Stats()

	// Figure 4 sweeps 5 policies over len(cfg.Loads) load points with a
	// per-load job seed: the distinct streams are the load points, so
	// generations must not scale with the policy count. (Another test may
	// have warmed the same keys, so bound rather than pin.)
	newGen := after.Generations - before.Generations
	if maxGen := uint64(len(cfg.Loads)); newGen > maxGen {
		t.Errorf("cached sweep performed %d generations, want <= %d (one per load point)",
			newGen, maxGen)
	}
	cells := after.Hits + after.Misses + after.Joins - before.Hits - before.Misses - before.Joins
	if cells <= uint64(len(cfg.Loads)) {
		t.Errorf("expected policy-fanout lookups, saw only %d", cells)
	}

	streamcache.Shared.SetMaxBytes(0)
	defer streamcache.Shared.SetMaxBytes(streamcache.DefaultMaxBytes)
	bypassed := renderAll(t, Figure4, cfg)
	if cached != bypassed {
		t.Errorf("cache changes experiment output:\n--- cached\n%s\n--- bypassed\n%s", cached, bypassed)
	}
}
