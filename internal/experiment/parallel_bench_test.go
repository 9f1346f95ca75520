package experiment

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkSweepWorkers regenerates a multi-figure batch (Figures 2, 4 and
// 6) at each worker count. Each iteration starts from empty memos
// (ClearMemos), so it simulates every cell and searches every cutoff once,
// as a fresh process would; within the iteration fig4's SITA-E curve is
// answered from fig2's cells. The workers=1 case is the sequential
// baseline; on a 4-core machine workers=4 completes the same
// byte-identical regeneration ≥2× faster (the cells are independent
// simulations with no shared state, so speedup tracks core count until the
// longest single cell dominates).
//
//	go test -bench Sweep -benchtime 3x ./internal/experiment/
func BenchmarkSweepWorkers(b *testing.B) {
	cfg := Default()
	cfg.Jobs = 20000
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		counts = append(counts, g)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := cfg
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				ClearMemos()
				for _, driver := range []func(Config) ([]Table, error){Figure2, Figure4, Figure6} {
					tables, err := driver(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if len(tables) == 0 {
						b.Fatal("no output")
					}
				}
			}
		})
	}
}

// BenchmarkReplicateWorkers measures the replication layer's fan-out: four
// independent replications of Figure 4, the unit of work the -rep flag
// multiplies. Each iteration starts from empty memos, so every
// replication's cells are simulated.
func BenchmarkReplicateWorkers(b *testing.B) {
	cfg := Default()
	cfg.Jobs = 10000
	cfg.Loads = []float64{0.7}
	seeds := []uint64{1, 2, 3, 4}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := cfg
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				ClearMemos()
				if _, err := Replicate(Figure4, cfg, seeds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
