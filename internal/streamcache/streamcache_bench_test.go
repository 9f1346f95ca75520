package streamcache

import (
	"testing"

	"sita/internal/trace"
)

// BenchmarkJobsAtLoad prices one stream acquisition on the two paths a
// sweep cell can take: a warm hit (the steady state of a multi-policy
// sweep, where every policy after the first shares the load point's
// stream) and a full generation (the cache turned off, equal to the
// pre-cache cost of every cell). The hit/generate ratio is the per-cell saving the
// BENCH_8 sweep numbers are built from.
func BenchmarkJobsAtLoad(b *testing.B) {
	p := trace.C90()
	p.Jobs = 100_000
	tr, err := trace.Generate(p, 42)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("hit", func(b *testing.B) {
		c := New(DefaultMaxBytes)
		c.JobsAtLoad(tr, 0.7, 2, true, 1) // warm the single entry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.JobsAtLoad(tr, 0.7, 2, true, 1)
		}
	})

	b.Run("generate", func(b *testing.B) {
		c := New(DefaultMaxBytes)
		c.SetMaxBytes(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.JobsAtLoad(tr, 0.7, 2, true, 1)
		}
	})
}
