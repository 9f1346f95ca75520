package streamcache

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"sita/internal/runner"
	"sita/internal/trace"
	"sita/internal/workload"
)

func testTrace(t *testing.T, jobs int) *trace.Trace {
	t.Helper()
	p := trace.C90()
	p.Jobs = jobs
	tr, err := trace.Generate(p, 42)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tr
}

func TestBytesPerJobMatchesLayout(t *testing.T) {
	if got := unsafe.Sizeof(workload.Job{}); int64(got) != bytesPerJob {
		t.Fatalf("workload.Job is %d bytes, cache charges %d — update bytesPerJob", got, bytesPerJob)
	}
}

// TestSingleFlight fans many concurrent requests for one key through the
// cache and requires exactly one generation; every caller must get the
// same backing array.
func TestSingleFlight(t *testing.T) {
	tr := testTrace(t, 2000)
	c := New(DefaultMaxBytes)

	var mu sync.Mutex
	generations := 0
	release := make(chan struct{})
	c.testHookGenerate = func(Key) {
		mu.Lock()
		generations++
		mu.Unlock()
		<-release // hold the first generation open so others must join
	}

	const callers = 16
	results := make([][]workload.Job, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = c.JobsAtLoad(tr, 0.7, 2, true, 99)
		}(i)
	}
	// Let the losers reach the join path, then release the winner. The
	// sleep-free way: close once the first generation has started.
	close(release)
	wg.Wait()

	if generations != 1 {
		t.Fatalf("got %d generations, want exactly 1", generations)
	}
	for i := 1; i < callers; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d got a different backing array", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Joins != callers-1 {
		t.Errorf("hits(%d)+joins(%d) = %d, want %d", st.Hits, st.Joins, st.Hits+st.Joins, callers-1)
	}
}

// TestHitReturnsSameSlice: sequential re-requests are hits on the same
// backing array — the common-random-numbers guarantee with zero copies.
func TestHitReturnsSameSlice(t *testing.T) {
	tr := testTrace(t, 1000)
	c := New(DefaultMaxBytes)
	a := c.JobsAtLoad(tr, 0.5, 2, true, 7)
	b := c.JobsAtLoad(tr, 0.5, 2, true, 7)
	if &a[0] != &b[0] {
		t.Fatal("second request did not hit the cached slice")
	}
	if d := c.JobsAtLoad(tr, 0.5, 2, true, 8); &d[0] == &a[0] {
		t.Fatal("different seed must be a different stream")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

// TestLRUEviction bounds the cache below two streams and checks the older
// one is evicted, then re-generated on demand.
func TestLRUEviction(t *testing.T) {
	tr := testTrace(t, 1000) // 24 KB per stream
	c := New(int64(1500) * bytesPerJob)

	c.JobsAtLoad(tr, 0.3, 2, true, 1)
	c.JobsAtLoad(tr, 0.5, 2, true, 1) // evicts 0.3
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after second insert: %+v, want 1 eviction, 1 entry", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed bound %d", st.Bytes, st.MaxBytes)
	}
	c.JobsAtLoad(tr, 0.3, 2, true, 1) // must regenerate
	if st = c.Stats(); st.Misses != 3 {
		t.Fatalf("evicted key did not regenerate: %+v", st)
	}
}

// TestOversizedEntryNotStored: a stream larger than the whole bound is
// served but never cached.
func TestOversizedEntryNotStored(t *testing.T) {
	tr := testTrace(t, 1000)
	c := New(10) // 10 bytes: nothing fits
	c.JobsAtLoad(tr, 0.5, 2, true, 1)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry was stored: %+v", st)
	}
}

// TestSetMaxBytesEvicts shrinks a populated cache and expects immediate
// eviction down to the new bound.
func TestSetMaxBytesEvicts(t *testing.T) {
	tr := testTrace(t, 1000)
	c := New(DefaultMaxBytes)
	for _, load := range []float64{0.3, 0.5, 0.7, 0.9} {
		c.JobsAtLoad(tr, load, 2, true, 1)
	}
	c.SetMaxBytes(int64(1500) * bytesPerJob)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes > st.MaxBytes {
		t.Fatalf("after shrink: %+v, want 1 entry within bound", st)
	}
}

// TestCacheTransparent: the cached stream is byte-identical to a direct
// trace.JobsAtLoad call, and so is the stream with the cache turned off —
// the cache can never change experiment output.
func TestCacheTransparent(t *testing.T) {
	tr := testTrace(t, 3000)
	c := New(DefaultMaxBytes)
	direct := tr.JobsAtLoad(0.7, 4, false, 1234)
	cached := c.JobsAtLoad(tr, 0.7, 4, false, 1234)
	if !reflect.DeepEqual(direct, cached) {
		t.Fatal("cached stream differs from direct generation")
	}
	c.SetMaxBytes(0)
	uncached := c.JobsAtLoad(tr, 0.7, 4, false, 1234)
	if !reflect.DeepEqual(direct, uncached) {
		t.Fatal("stream with the cache off differs from direct generation")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("turning the cache off (SetMaxBytes(0)) must drop stored entries: %+v", st)
	}
}

// TestDerivedTraceDistinctIdentity: a truncated trace must not collide
// with its parent in the cache even though it shares the backing array.
func TestDerivedTraceDistinctIdentity(t *testing.T) {
	tr := testTrace(t, 2000)
	half := tr.Truncate(1000)
	c := New(DefaultMaxBytes)
	a := c.JobsAtLoad(tr, 0.5, 2, true, 1)
	b := c.JobsAtLoad(half, 0.5, 2, true, 1)
	if len(a) == len(b) {
		t.Fatal("parent and truncated child returned the same stream")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("expected two distinct entries, got %+v", st)
	}
}

// TestConcurrentFanOut drives the cache through runner.MapOpts the way a
// sweep does — many cells, few distinct keys — and checks generation
// count and byte-identical per-key results. Run under -race in CI.
func TestConcurrentFanOut(t *testing.T) {
	tr := testTrace(t, 2000)
	c := New(DefaultMaxBytes)

	loads := []float64{0.3, 0.5, 0.7, 0.9}
	const policies = 6
	type cell struct {
		load float64
		rep  int
	}
	var cells []cell
	for _, l := range loads {
		for p := 0; p < policies; p++ {
			cells = append(cells, cell{l, p})
		}
	}
	out, err := runner.MapOpts(runner.Options{Workers: 8}, cells,
		func(i int, cl cell) ([]workload.Job, error) {
			return c.JobsAtLoad(tr, cl.load, 2, true, 7), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, jobs := range out {
		want := c.JobsAtLoad(tr, cells[i].load, 2, true, 7)
		if &jobs[0] != &want[0] {
			t.Fatalf("cell %d: stream not shared for load %v", i, cells[i].load)
		}
	}
	st := c.Stats()
	if st.Generations != uint64(len(loads)) {
		t.Fatalf("generations = %d, want one per distinct load (%d); stats %+v",
			st.Generations, len(loads), st)
	}
}

// TestExactByteBudgetBoundary pins the byte-accounting at the exact
// budget edge: an entry that fills the bound to the last byte is stored
// without evicting, the next insert evicts the LRU entry (not the new
// one), and an entry one job over the whole bound is served but never
// stored.
func TestExactByteBudgetBoundary(t *testing.T) {
	const n = 1000
	tr := testTrace(t, n)
	c := New(int64(n) * bytesPerJob) // budget == exactly one stream

	a := c.JobsAtLoad(tr, 0.3, 2, true, 1)
	if len(a) != n {
		t.Fatalf("stream has %d jobs, want %d", len(a), n)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != st.MaxBytes || st.Evictions != 0 {
		t.Fatalf("exact-fit entry: %+v, want 1 entry filling the bound with no eviction", st)
	}

	// Second exact-fit stream: the budget forces the older one out, and
	// the newcomer must be the survivor.
	b := c.JobsAtLoad(tr, 0.5, 2, true, 1)
	st = c.Stats()
	if st.Entries != 1 || st.Bytes != st.MaxBytes || st.Evictions != 1 {
		t.Fatalf("after second exact-fit insert: %+v, want 1 entry, 1 eviction", st)
	}
	if b2 := c.JobsAtLoad(tr, 0.5, 2, true, 1); &b2[0] != &b[0] {
		t.Fatal("newest entry was evicted instead of the LRU one")
	}
	if st = c.Stats(); st.Hits != 1 {
		t.Fatalf("survivor lookup was not a hit: %+v", st)
	}

	// One job over the whole bound: served, never stored, nothing evicted.
	over := testTrace(t, n+1)
	before := c.Stats()
	if got := c.JobsAtLoad(over, 0.5, 2, true, 1); len(got) != n+1 {
		t.Fatalf("oversized stream has %d jobs, want %d", len(got), n+1)
	}
	st = c.Stats()
	if st.Entries != before.Entries || st.Bytes != before.Bytes || st.Evictions != before.Evictions {
		t.Fatalf("oversized entry disturbed the cache: %+v -> %+v", before, st)
	}
}
