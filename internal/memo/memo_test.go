package memo

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitFor spins until cond holds, failing the test after a generous
// deadline instead of hanging.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestSingleFlight: N concurrent calls on one key run compute once and
// all receive the value it returned.
func TestSingleFlight(t *testing.T) {
	c := New[string, *int](10, nil)
	release := make(chan struct{})
	var mu sync.Mutex
	computes := 0
	want := new(int)

	const n = 16
	got := make([]*int, n)
	statuses := make([]Status, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			got[i], statuses[i], _ = c.Do("k", func() (*int, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-release
				return want, nil
			})
		}(i)
	}
	waitFor(t, "joiners", func() bool { return c.Stats().Joins == n-1 })
	close(release)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	misses := 0
	for i := range got {
		if got[i] != want {
			t.Fatalf("caller %d got a different value", i)
		}
		if statuses[i] == Miss {
			misses++
		}
	}
	if st := c.Stats(); misses != 1 || st.Misses != 1 || st.Joins != n-1 || st.Entries != 1 {
		t.Fatalf("misses=%d stats=%+v, want 1 miss, %d joins, 1 entry", misses, st, n-1)
	}
	if v, status, err := c.Do("k", nil); v != want || status != Hit || err != nil {
		t.Fatalf("after the flight: (%v, %q, %v), want a hit on the stored value", v, status, err)
	}
}

// TestErrorNotStored: a failed compute hands its error to every joiner,
// stores nothing, and the next call computes again.
func TestErrorNotStored(t *testing.T) {
	c := New[string, int](10, nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (int, error) { <-release; return 0, boom })
		errs <- err
	}()
	waitFor(t, "the compute to start", func() bool { return c.Stats().Misses == 1 })

	const joiners = 4
	var wg sync.WaitGroup
	wg.Add(joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			defer wg.Done()
			if _, status, err := c.Do("k", nil); status != Join || !errors.Is(err, boom) {
				t.Errorf("joiner got (%q, %v), want (join, boom)", status, err)
			}
		}()
	}
	waitFor(t, "joiners", func() bool { return c.Stats().Joins == joiners })
	close(release)
	wg.Wait()
	if err := <-errs; !errors.Is(err, boom) {
		t.Fatalf("computing caller got %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Cost != 0 {
		t.Fatalf("a failed compute was stored: %+v", st)
	}
	v, status, err := c.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || status != Miss || err != nil {
		t.Fatalf("retry after failure: (%d, %q, %v), want (7, miss, nil)", v, status, err)
	}
}

// TestPanicReleasesJoiners: a panicking compute neither strands its
// joiners nor leaves the key stuck in flight.
func TestPanicReleasesJoiners(t *testing.T) {
	c := New[string, int](10, nil)
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do("k", func() (int, error) { <-release; panic("bad input") })
	}()
	waitFor(t, "the compute to start", func() bool { return c.Stats().Misses == 1 })
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", nil)
		joined <- err
	}()
	waitFor(t, "the joiner", func() bool { return c.Stats().Joins == 1 })
	close(release)
	if r := <-panicked; r != "bad input" {
		t.Fatalf("computing caller recovered %v, want the original panic", r)
	}
	if err := <-joined; !errors.Is(err, ErrPanicked) {
		t.Fatalf("joiner got %v, want ErrPanicked", err)
	}
	if v, status, err := c.Do("k", func() (int, error) { return 3, nil }); v != 3 || status != Miss || err != nil {
		t.Fatalf("retry after panic: (%d, %q, %v), want (3, miss, nil)", v, status, err)
	}
}

// put stores v under k through a compute that cannot fail.
func put(c *Cache[string, []byte], k string, v []byte) {
	c.Do(k, func() ([]byte, error) { return v, nil })
}

func byteCost(b []byte) int64 { return int64(len(b)) }

// has reports whether k is stored, without counting a hit or changing the
// recency order.
func has(c *Cache[string, []byte], k string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

// TestLRUEvictionOrder: inserting past the cost bound evicts the least
// recently used entries, where a hit counts as a use.
func TestLRUEvictionOrder(t *testing.T) {
	c := New[string, []byte](10, byteCost)
	put(c, "a", make([]byte, 4))
	put(c, "b", make([]byte, 4))
	put(c, "a", nil) // hit: b is now the least recent
	put(c, "c", make([]byte, 4))
	if has(c, "b") || !has(c, "a") || !has(c, "c") {
		t.Fatal("want b evicted, a and c kept")
	}
	put(c, "d", make([]byte, 10)) // fills the bound exactly: evicts a, then c
	st := c.Stats()
	if has(c, "a") || has(c, "c") || !has(c, "d") || st.Evictions != 3 || st.Cost != 10 || st.Entries != 1 {
		t.Fatalf("after exact-fit insert: %+v, want only d at cost 10 after 3 evictions", st)
	}
}

// TestOversizedNotStored: a value costing more than the whole bound is
// returned but not stored, and evicts nothing.
func TestOversizedNotStored(t *testing.T) {
	c := New[string, []byte](10, byteCost)
	put(c, "small", make([]byte, 3))
	v, status, _ := c.Do("big", func() ([]byte, error) { return make([]byte, 11), nil })
	if len(v) != 11 || status != Miss {
		t.Fatalf("oversized value not returned: len %d, %q", len(v), status)
	}
	if st := c.Stats(); st.Entries != 1 || st.Cost != 3 || st.Evictions != 0 || has(c, "big") {
		t.Fatalf("oversized value disturbed the cache: %+v", st)
	}
}

// TestZeroBoundCoalesces: maxCost <= 0 stores nothing, yet concurrent
// calls on one key still share a single compute.
func TestZeroBoundCoalesces(t *testing.T) {
	for _, bound := range []int64{0, -1} {
		c := New[string, []byte](bound, byteCost)
		release := make(chan struct{})
		computes := 0
		const n = 8
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer wg.Done()
				c.Do("k", func() ([]byte, error) { computes++; <-release; return []byte("x"), nil })
			}()
		}
		waitFor(t, "joiners", func() bool { return c.Stats().Joins == n-1 })
		close(release)
		wg.Wait()
		if st := c.Stats(); computes != 1 || st.Entries != 0 {
			t.Fatalf("bound %d: %d computes, stats %+v; want 1 compute and nothing stored", bound, computes, st)
		}
		if _, status, _ := c.Do("k", func() ([]byte, error) { return nil, nil }); status != Miss {
			t.Fatalf("bound %d: second call was %q, want a miss", bound, status)
		}
	}
}

// TestSetMaxCostEvicts: shrinking the bound evicts the oldest entries at
// once, and a zero bound empties the cache.
func TestSetMaxCostEvicts(t *testing.T) {
	c := New[string, []byte](100, byteCost)
	for _, k := range []string{"a", "b", "c", "d"} {
		put(c, k, make([]byte, 5))
	}
	c.SetMaxCost(10)
	if st := c.Stats(); st.Entries != 2 || st.Cost != 10 || st.MaxCost != 10 || !has(c, "c") || !has(c, "d") {
		t.Fatalf("after shrink to 10: %+v, want c and d kept", st)
	}
	c.SetMaxCost(0)
	if st := c.Stats(); st.Entries != 0 || st.Cost != 0 || st.Evictions != 4 {
		t.Fatalf("after shrink to 0: %+v, want empty after 4 evictions", st)
	}
}

// TestHitNotBlockedByCompute: a hit on one key returns while a compute
// for another key is still running.
func TestHitNotBlockedByCompute(t *testing.T) {
	c := New[string, int](10, nil)
	c.Do("b", func() (int, error) { return 2, nil })
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("a", func() (int, error) { <-release; return 1, nil })
	}()
	waitFor(t, "the compute for a", func() bool { return c.Stats().Misses == 2 })

	hit := make(chan int, 1)
	go func() {
		v, _, _ := c.Do("b", nil)
		hit <- v
	}()
	select {
	case v := <-hit:
		if v != 2 {
			t.Fatalf("hit on b returned %d, want 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a hit on b waited for the compute of a")
	}
	close(release)
	<-done
}

// streamKey mirrors the shape of the stream cache's key: an identity
// digest plus the retiming parameters.
type streamKey struct {
	id      [2]uint64
	load    float64
	hosts   int
	poisson bool
	seed    uint64
}

type job struct{ id, arrival, size float64 }

// TestHitDoesNotAllocate pins the hit path at zero allocations for the
// two key/value shapes the hot caches use.
func TestHitDoesNotAllocate(t *testing.T) {
	bodies := New[string, []byte](1<<20, byteCost)
	body := []byte(`{"policy":"SITA-U-fair"}`)
	put(bodies, "key", body)
	if n := testing.AllocsPerRun(100, func() {
		bodies.Do("key", func() ([]byte, error) { return body, nil })
	}); n != 0 {
		t.Errorf("string/[]byte hit: %v allocs/op, want 0", n)
	}

	streams := New[streamKey, []job](1<<20, func(j []job) int64 { return int64(len(j)) * 24 })
	k := streamKey{id: [2]uint64{1, 2}, load: 0.7, hosts: 2, poisson: true, seed: 1}
	jobs := make([]job, 100)
	streams.Do(k, func() ([]job, error) { return jobs, nil })
	if n := testing.AllocsPerRun(100, func() {
		streams.Do(k, func() ([]job, error) { return jobs, nil })
	}); n != 0 {
		t.Errorf("struct/[]job hit: %v allocs/op, want 0", n)
	}
}
