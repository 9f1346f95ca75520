package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"sita/internal/dist"
	"sita/internal/workload"
)

// TestJobsAtLoadReplayScale checks the bursty retime on a hand-made log:
// gaps 1, 2, 3, 4 (mean 2.5) and jobs of size 10 at load 0.5 on 2 hosts
// want a mean gap of 10/(0.5*2) = 10, so every gap is scaled by 4. A log
// with no gap to rescale panics.
func TestJobsAtLoadReplayScale(t *testing.T) {
	tr := literal("r", []workload.Job{{Arrival: 1, Size: 10}, {Arrival: 3, Size: 10}, {Arrival: 6, Size: 10}, {Arrival: 10, Size: 10}})
	jobs := tr.JobsAtLoad(0.5, 2, false, 1)
	for i, want := range []float64{4, 12, 24, 40} {
		if j := jobs[i]; j.ID != i || math.Abs(j.Arrival-want) > 1e-12 || j.Size != 10 {
			t.Fatalf("job %d = %+v, want arrival %v, size 10", i, j, want)
		}
	}
	for _, bad := range []*Trace{
		literal("empty", nil),
		literal("at-zero", []workload.Job{{Arrival: 0, Size: 1}, {Arrival: 0, Size: 2}}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bursty retime did not panic", bad.Name)
				}
			}()
			bad.JobsAtLoad(0.5, 2, false, 1)
		}()
	}
}

// TestSizeDistMemo holds the size-fit memo to the fit it replaces: each
// built-in profile and a hand-made one get dist.FitBoundedParetoMean's
// answer bit for bit, on the first call and from the memo; an infeasible
// profile fails alike on every call and is never stored; and the memo
// stays within its bound however many profiles it sees.
func TestSizeDistMemo(t *testing.T) {
	hand := Profile{Name: "hand", MinService: 10, MaxService: 1e5, MeanService: 700}
	for _, p := range []Profile{C90(), J90(), CTC(), hand} {
		want, err := dist.FitBoundedParetoMean(p.MeanService, p.MinService, p.MaxService)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 2; call++ {
			got, err := p.SizeDist()
			if err != nil {
				t.Fatalf("%s call %d: %v", p.Name, call, err)
			}
			if !sameBits(got.Alpha, want.Alpha) || !sameBits(got.K, want.K) || !sameBits(got.P, want.P) || got != want {
				t.Fatalf("%s call %d: %+v, want %+v", p.Name, call, got, want)
			}
		}
	}

	bad := C90()
	bad.MeanService = bad.MaxService * 2
	entries := sizeFits.Stats().Entries
	_, want := dist.FitBoundedParetoMean(bad.MeanService, bad.MinService, bad.MaxService)
	for call := 0; call < 3; call++ {
		if _, err := bad.SizeDist(); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("infeasible profile, call %d: err %v, want %v", call, err, want)
		}
	}
	if got := sizeFits.Stats().Entries; got != entries {
		t.Fatalf("an infeasible fit was stored: %d entries, was %d", got, entries)
	}

	for i := range 1000 {
		p := hand
		p.MeanService += float64(i)
		if _, err := p.SizeDist(); err != nil {
			t.Fatalf("profile %d: %v", i, err)
		}
		if n := sizeFits.Stats().Entries; n > sizeFitCap {
			t.Fatalf("after %d profiles the memo holds %d fits, cap %d", i+1, n, sizeFitCap)
		}
	}
}

// TestLazyArrivalsConcurrentFirstReaders starts eight goroutines that all
// read a fresh lazy trace's arrivals first, through every reader:
// ComputeStats, the bursty retime, a Truncate child, a SplitHalf child
// and WriteSWF. Each must see what the same read sees on an eager copy.
// Run it under -race.
func TestLazyArrivalsConcurrentFirstReaders(t *testing.T) {
	fresh := func() *Trace {
		tr, err := Generate(C90(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	lazy := fresh()
	eager := New(lazy.Name, fresh().Jobs())
	reads := []func(tr *Trace) any{
		func(tr *Trace) any { return tr.ComputeStats() },
		func(tr *Trace) any { return tr.JobsAtLoad(0.7, 2, false, 1) },
		func(tr *Trace) any { return tr.Truncate(tr.Len() / 3).Jobs() },
		func(tr *Trace) any { _, second := tr.SplitHalf(); return second.Jobs() },
		func(tr *Trace) any {
			var buf bytes.Buffer
			if err := WriteSWF(tr, &buf); err != nil {
				return err
			}
			return buf.String()
		},
	}
	const readers = 8
	got := make([]any, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(readers)
	for g := range readers {
		go func() {
			defer wg.Done()
			<-start
			got[g] = reads[g%len(reads)](lazy)
		}()
	}
	close(start)
	wg.Wait()
	for g, v := range got {
		if want := reads[g%len(reads)](eager); !reflect.DeepEqual(v, want) {
			t.Errorf("reader %d (read %d) differs from the eager copy: %s", g, g%len(reads), brief(v))
		}
	}
}

// brief describes a read's result without printing 55,000 jobs.
func brief(v any) string {
	switch v := v.(type) {
	case []workload.Job:
		return fmt.Sprintf("%d jobs", len(v))
	case string:
		return fmt.Sprintf("%d bytes of SWF", len(v))
	}
	return fmt.Sprint(v)
}
