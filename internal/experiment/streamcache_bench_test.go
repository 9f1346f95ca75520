package experiment

import (
	"testing"

	"sita/internal/streamcache"
)

// BenchmarkSweepStreamCache prices a multi-policy figure sweep with the
// stream cache on and off, in the same binary: "bypassed" is the
// pre-cache behavior (every (policy, load) cell regenerates its job
// stream), "cached" generates each load point's stream once and shares it
// across the policy fanout. Figure 10 is the representative driver: a
// plain simSweep over the full policy set, so the stream-generation share
// of its runtime is typical of the result-regenerating sweeps.
func BenchmarkSweepStreamCache(b *testing.B) {
	cfg := Default()
	cfg.Jobs = 20000
	for _, mode := range []struct {
		name     string
		maxBytes int64
	}{
		{"bypassed", 0},
		{"cached", streamcache.DefaultMaxBytes},
	} {
		b.Run(mode.name, func(b *testing.B) {
			streamcache.Shared.SetMaxBytes(mode.maxBytes)
			defer streamcache.Shared.SetMaxBytes(streamcache.DefaultMaxBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tables, err := Figure10(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) == 0 {
					b.Fatal("no output tables")
				}
			}
		})
	}
}
