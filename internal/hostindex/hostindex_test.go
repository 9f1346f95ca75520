package hostindex

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"sita/internal/sim"
)

// scanArgMin is the oracle every index must reproduce: a lowest-index-wins
// linear scan over clamped work-left values. A drained host holds key
// -Inf, whose work left clamps to zero like any key at or before now.
func scanArgMin(keys []float64, lo, hi int, now float64) int {
	best, bestLeft := lo, math.Inf(1)
	for i := lo; i < hi; i++ {
		left := keys[i] - now
		if left < 0 {
			left = 0
		}
		if left < bestLeft {
			best, bestLeft = i, left
		}
	}
	return best
}

// TestOrderedKeyPreservesFloatOrder pins the integer key encoding: the
// unsigned order of ordered(x) is the float order of x, -0 and +0 map to
// the same key, and unordered inverts the map (with -0 read back as +0).
func TestOrderedKeyPreservesFloatOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// Ascending, with one pair of equal floats (-0, +0).
	xs := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2, -1, -0.5,
		-math.SmallestNonzeroFloat64, negZero, 0, math.SmallestNonzeroFloat64,
		0x1p-1022, 0.5, 1, 1 + 0x1p-52, 2, 1e300, math.MaxFloat64, math.Inf(1),
	}
	if ordered(math.Inf(1)) != absent || ordered(math.Inf(-1)) != drained {
		t.Fatalf("absent=%#x drained=%#x, want ordered(+Inf)=%#x and ordered(-Inf)=%#x",
			absent, drained, ordered(math.Inf(1)), ordered(math.Inf(-1)))
	}
	for i, a := range xs {
		for j, b := range xs {
			ka, kb := ordered(a), ordered(b)
			if (ka < kb) != (a < b) || (ka == kb) != (a == b) {
				t.Fatalf("xs[%d]=%v xs[%d]=%v: keys %#x %#x disagree with the float order", i, a, j, b, ka, kb)
			}
		}
		back := unordered(ordered(a))
		if a == 0 {
			if math.Float64bits(back) != 0 {
				t.Fatalf("%v read back as %v, want +0", a, back)
			}
		} else if math.Float64bits(back) != math.Float64bits(a) {
			t.Fatalf("%v read back as %v", a, back)
		}
	}
}

func TestTreeMatchesScan(t *testing.T) {
	rng := sim.NewRNG(1, 0)
	for _, h := range []int{1, 2, 3, 5, 8, 17, 64, 100, 257} {
		var tree Tree
		tree.Reset(h)
		keys := make([]float64, h)
		for i := range keys {
			keys[i] = math.Inf(1)
		}
		for step := 0; step < 2000; step++ {
			i := rng.IntN(h)
			// Coarse keys force frequent exact ties.
			k := float64(rng.IntN(8))
			tree.Update(i, k)
			keys[i] = k
			// Oracle: lexicographic (key, id) minimum.
			best := 0
			for j := 1; j < h; j++ {
				//lint:allow floateq exact tie-break oracle mirrors the tree's comparator
				if keys[j] < keys[best] {
					best = j
				}
			}
			got, gotKey := tree.Min()
			if got != best || gotKey != keys[best] {
				t.Fatalf("h=%d step=%d: Min()=(%d,%v), scan=(%d,%v)", h, step, got, gotKey, best, keys[best])
			}
			if h > 1 {
				lo := rng.IntN(h - 1)
				hi := lo + 1 + rng.IntN(h-lo-1) + 1
				if hi > h {
					hi = h
				}
				rbest := lo
				for j := lo + 1; j < hi; j++ {
					//lint:allow floateq exact tie-break oracle mirrors the tree's comparator
					if keys[j] < keys[rbest] {
						rbest = j
					}
				}
				rgot, rkey := tree.RangeMin(lo, hi)
				if rgot != rbest || rkey != keys[rbest] {
					t.Fatalf("h=%d step=%d: RangeMin(%d,%d)=(%d,%v), scan=(%d,%v)",
						h, step, lo, hi, rgot, rkey, rbest, keys[rbest])
				}
			}
		}
	}
}

func TestTreeAllInfPicksLowestID(t *testing.T) {
	var tree Tree
	tree.Reset(5)
	if i, k := tree.Min(); i != 0 || !math.IsInf(k, 1) {
		t.Fatalf("all-absent Min = (%d, %v), want (0, +Inf)", i, k)
	}
	tree.Update(3, math.Inf(1)) // explicit +Inf behaves like Reset state
	if i, _ := tree.RangeMin(2, 5); i != 2 {
		t.Fatalf("all-absent RangeMin(2,5) = %d, want 2", i)
	}
}

func TestTreeNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NaN key")
		}
	}()
	var tree Tree
	tree.Reset(2)
	tree.Update(0, math.NaN())
}

func TestBitSetMinQueries(t *testing.T) {
	rng := sim.NewRNG(2, 0)
	for _, h := range []int{1, 3, 63, 64, 65, 128, 200, 1024} {
		var s BitSet
		s.Reset(h)
		marked := make([]bool, h)
		if s.Min() != -1 {
			t.Fatalf("h=%d: fresh set not empty", h)
		}
		for step := 0; step < 1500; step++ {
			i := rng.IntN(h)
			if rng.IntN(2) == 0 {
				s.Set(i)
				marked[i] = true
			} else {
				s.Clear(i)
				marked[i] = false
			}
			want := -1
			for j := range marked {
				if marked[j] {
					want = j
					break
				}
			}
			if got := s.Min(); got != want {
				t.Fatalf("h=%d step=%d: Min=%d, want %d", h, step, got, want)
			}
		}
	}
}

func TestBitSetSetAllClearsPadding(t *testing.T) {
	for _, h := range []int{1, 5, 63, 64, 65, 130} {
		var s BitSet
		s.Reset(h)
		s.SetAll()
		// Clearing the bits in order walks Min through every host: each
		// bit was set, and none past n was.
		for i := 0; i < h; i++ {
			if got := s.Min(); got != i {
				t.Fatalf("h=%d: Min after SetAll and clearing %d bits = %d, want %d", h, i, got, i)
			}
			s.Clear(i)
		}
		if got := s.Min(); got != -1 {
			t.Fatalf("h=%d: ghost bit beyond n after SetAll: Min=%d", h, got)
		}
	}
}

// timedMinKey draws from the key palette of the TimedMin oracle tests: small
// integers and halves so every key-now difference the scan takes is exact,
// with negative keys, both zeros, and both infinities.
func timedMinKey(rng *rand.Rand, now float64) float64 {
	switch rng.IntN(10) {
	case 0:
		return math.Inf(-1)
	case 1:
		return math.Inf(1)
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return 0
	case 4:
		return now // drains exactly at the query instant
	case 5:
		return -float64(rng.IntN(8)) / 2
	default:
		return now + float64(rng.IntN(9)-2)/2
	}
}

// checkTimedMin compares every query of m against the clamped scan: the
// global argmin, and the ranged argmin over every (lo, hi) when h <= 9,
// else over a sample of ranges.
func checkTimedMin(t *testing.T, m *TimedMin, keys []float64, now float64, rng *rand.Rand, where string) {
	t.Helper()
	h := len(keys)
	if got, want := m.ArgMin(now), scanArgMin(keys, 0, h, now); got != want {
		t.Fatalf("%s now=%v: ArgMin=%d, want %d (keys=%v)", where, now, got, want, keys)
	}
	check := func(lo, hi int) {
		if got, want := m.ArgMinRange(lo, hi, now), scanArgMin(keys, lo, hi, now); got != want {
			t.Fatalf("%s now=%v: ArgMinRange(%d,%d)=%d, want %d (keys=%v)", where, now, lo, hi, got, want, keys)
		}
	}
	if h <= 9 {
		for lo := 0; lo < h; lo++ {
			for hi := lo + 1; hi <= h; hi++ {
				check(lo, hi)
			}
		}
		return
	}
	for n := 0; n < 8; n++ {
		lo := rng.IntN(h)
		check(lo, lo+1+rng.IntN(h-lo))
	}
}

// TestTimedMinMatchesScan drives a TimedMin and the clamped-scan oracle
// through a randomized schedule of drains, re-keys, and argmin queries at
// a monotonically advancing clock — the access pattern of a simulation —
// starting below zero so negative keys can lead, over host counts that
// are and are not powers of two. It then puts equal keys on both sides of
// every node: for each pair of hosts a < b, the two share the least key
// (once above now, once at now, once drained) while every other host
// holds a larger one, so the pair meet in the match of their lowest
// common ancestor and the lower id, a, must win it.
func TestTimedMinMatchesScan(t *testing.T) {
	rng := sim.NewRNG(3, 0)
	for _, h := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 100, 513} {
		var m TimedMin
		m.Reset(h)
		keys := make([]float64, h)
		for i := range keys {
			keys[i] = math.Inf(-1)
		}
		now := -6.0
		for step := 0; step < 3000; step++ {
			now += float64(rng.IntN(3)) / 2 // half steps force exact key==now ties
			switch rng.IntN(3) {
			case 0: // host gains a drain instant
				i := rng.IntN(h)
				k := timedMinKey(rng, now)
				m.SetKey(i, k)
				keys[i] = k
			case 1: // host drains explicitly (the depart-to-idle event)
				i := rng.IntN(h)
				m.SetZero(i)
				keys[i] = math.Inf(-1)
			case 2:
				checkTimedMin(t, &m, keys, now, rng, fmt.Sprintf("h=%d step=%d", h, step))
			}
		}
	}
	for _, h := range []int{2, 5, 8, 9} {
		for a := 0; a < h; a++ {
			for b := a + 1; b < h; b++ {
				for _, low := range []float64{3, 2, math.Inf(-1)} {
					var m TimedMin
					m.Reset(h)
					keys := make([]float64, h)
					for i := range keys {
						keys[i] = 7
						if i == a || i == b {
							keys[i] = low
						}
						m.SetKey(i, keys[i])
					}
					checkTimedMin(t, &m, keys, 2, rng, fmt.Sprintf("h=%d pair=(%d,%d) key=%v", h, a, b, low))
				}
			}
		}
	}
}

// FuzzTimedMin decodes a byte string into SetKey, SetZero, ArgMin and
// ArgMinRange operations on up to 40 hosts and checks every answer
// against the clamped scan. Queries are stateless in the index, so their
// instants need not advance.
func FuzzTimedMin(f *testing.F) {
	f.Add([]byte{7, 0, 1, 10, 2, 0, 3, 10, 3, 2, 0, 4, 8, 3, 0})
	f.Add([]byte{0, 2, 0, 0, 2, 1, 3, 0})
	f.Add([]byte{16, 0, 0, 3, 0, 5, 2, 129, 2, 2, 0, 2, 0, 4, 2, 1, 2, 9, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := 1 + int(data[0])%40
		data = data[1:]
		// value decodes one byte: three specials, else a half-integer in
		// [-31.5, 31.5] (exact under the scan's subtraction).
		value := func(b byte) float64 {
			switch b {
			case 0:
				return math.Inf(-1)
			case 1:
				return math.Inf(1)
			case 2:
				return math.Copysign(0, -1)
			}
			return float64(int8(b)/2) / 2
		}
		var m TimedMin
		m.Reset(h)
		keys := make([]float64, h)
		for i := range keys {
			keys[i] = math.Inf(-1)
		}
		for ; len(data) >= 4; data = data[4:] {
			a, b, c := int(data[1]), int(data[2]), data[3]
			switch data[0] % 4 {
			case 0:
				m.SetKey(a%h, value(c))
				keys[a%h] = value(c)
			case 1:
				m.SetZero(a % h)
				keys[a%h] = math.Inf(-1)
			case 2:
				now := value(c)
				if math.IsInf(now, 0) {
					now = 0
				}
				if got, want := m.ArgMin(now), scanArgMin(keys, 0, h, now); got != want {
					t.Fatalf("ArgMin(%v)=%d, want %d (keys=%v)", now, got, want, keys)
				}
			case 3:
				lo := a % h
				hi := lo + 1 + b%(h-lo)
				now := value(c)
				if math.IsInf(now, 0) {
					now = 0
				}
				if got, want := m.ArgMinRange(lo, hi, now), scanArgMin(keys, lo, hi, now); got != want {
					t.Fatalf("ArgMinRange(%d,%d,%v)=%d, want %d (keys=%v)", lo, hi, now, got, want, keys)
				}
			}
		}
	})
}

// TestTimedMinKeyAtNowTiesDrained pins the subtle tie case: a host whose
// drain instant equals the query instant ties with explicitly drained
// hosts, and the lowest index — however it came to have no work — must
// win.
func TestTimedMinKeyAtNowTiesDrained(t *testing.T) {
	var m TimedMin
	m.Reset(4)
	m.SetKey(1, 5) // drains exactly at the query instant
	m.SetKey(2, 9)
	m.SetZero(3) // long drained
	m.SetKey(0, 7)
	// At now=5: host 1 (key==now) and host 3 (zero) tie at 0; lowest wins.
	if got := m.ArgMin(5); got != 1 {
		t.Fatalf("ArgMin(5) = %d, want 1 (key==now ties with the drained hosts)", got)
	}
	if !m.IsZero(1, 5) {
		t.Fatal("host 1 not drained at its drain instant")
	}
	// Re-keying pulls it back out.
	m.SetKey(1, 12)
	if got := m.ArgMin(5); got != 3 {
		t.Fatalf("ArgMin(5) after re-key = %d, want 3", got)
	}
	// Range query excluding the drained host falls back to the tree.
	if got := m.ArgMinRange(0, 2, 5); got != 0 {
		t.Fatalf("ArgMinRange(0,2,5) = %d, want 0", got)
	}
}

func TestResetReusesWithoutGhostState(t *testing.T) {
	var m TimedMin
	m.Reset(64)
	for i := 0; i < 64; i++ {
		m.SetKey(i, float64(100+i))
	}
	// Shrink: stale keys and bits from the larger run must be invisible.
	m.Reset(3)
	if got := m.ArgMin(0); got != 0 {
		t.Fatalf("after shrink ArgMin = %d, want 0", got)
	}
	m.SetKey(0, 50)
	m.SetKey(1, 40)
	m.SetKey(2, 60)
	if got := m.ArgMin(0); got != 1 {
		t.Fatalf("after shrink+rekey ArgMin = %d, want 1", got)
	}
	// Grow again past the original size.
	m.Reset(100)
	if got := m.ArgMin(0); got != 0 {
		t.Fatalf("after regrow ArgMin = %d, want 0", got)
	}
}

// TestSteadyStateOperationsDoNotAllocate is the package's allocation
// contract: once Reset, every index operation is allocation-free.
func TestSteadyStateOperationsDoNotAllocate(t *testing.T) {
	var m TimedMin
	m.Reset(1024)
	var jobs Tree
	jobs.Reset(1024)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		m.SetKey(i%1024, float64(i%97)+1e6)
		m.SetZero((i + 511) % 1024)
		_ = m.ArgMin(float64(i % 13))
		_ = m.ArgMinRange(100, 900, float64(i%13))
		jobs.Update(i%1024, float64(i%7))
		_, _ = jobs.Min()
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state index operations allocate %v/op, want 0", allocs)
	}
}

func BenchmarkTreeUpdate(b *testing.B) {
	for _, h := range []int{16, 128, 1024} {
		b.Run(sizeLabel(h), func(b *testing.B) {
			var tr Tree
			tr.Reset(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Update(i%h, float64(i&1023))
			}
		})
	}
}

func BenchmarkTimedMinArgMin(b *testing.B) {
	for _, h := range []int{16, 128, 1024} {
		b.Run(sizeLabel(h), func(b *testing.B) {
			var m TimedMin
			m.Reset(h)
			for i := 0; i < h; i++ {
				m.SetKey(i, float64(i+1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				host := m.ArgMin(0)
				m.SetKey(host, float64(i%h)+1)
			}
		})
	}
}

func sizeLabel(h int) string {
	switch h {
	case 16:
		return "h=16"
	case 128:
		return "h=128"
	default:
		return "h=1024"
	}
}

// TestTimedMinDrainBoundaryEdges pins the drain boundary semantics: a
// host whose drain instant equals the query instant has zero work left
// (key <= now drains, not key < now), drained hosts tie at zero with
// lowest index winning, SetKey resurrects a drained host, and the ranged
// query applies the same rules inside its window.
func TestTimedMinDrainBoundaryEdges(t *testing.T) {
	var m TimedMin
	m.Reset(4)
	// All hosts start drained: lowest index wins everywhere.
	if got := m.ArgMin(0); got != 0 {
		t.Fatalf("fresh index ArgMin = %d, want 0", got)
	}

	m.SetKey(0, 5)
	m.SetKey(1, 7)
	m.SetKey(2, 5)
	m.SetKey(3, 9)
	// No host drained: tree argmin with ties on key 5 resolved to the
	// lowest id.
	if got := m.ArgMin(1); got != 0 {
		t.Fatalf("ArgMin(1) = %d, want 0 (tree tie -> lowest id)", got)
	}
	for i := 0; i < 4; i++ {
		if m.IsZero(i, 1) {
			t.Fatalf("host %d drained prematurely", i)
		}
	}

	// Query exactly at the drain instant: keys 5 must drain (<=, not <),
	// both tied hosts have zero work, lowest index wins.
	if got := m.ArgMin(5); got != 0 {
		t.Fatalf("ArgMin(5) = %d, want 0", got)
	}
	if !m.IsZero(0, 5) || !m.IsZero(2, 5) {
		t.Fatal("hosts with key == now are not drained")
	}
	if m.IsZero(1, 5) || m.IsZero(3, 5) {
		t.Fatal("hosts with key > now drained early")
	}

	// Ranged query over a window whose drained member is host 2.
	if got := m.ArgMinRange(1, 4, 5); got != 2 {
		t.Fatalf("ArgMinRange(1, 4, 5) = %d, want 2 (drained beats live keys)", got)
	}
	// Window with no drained host falls through to the tree range-min.
	if got := m.ArgMinRange(1, 2, 5); got != 1 {
		t.Fatalf("ArgMinRange(1, 2, 5) = %d, want 1", got)
	}

	// Resurrect a drained host: SetKey must give it work again and it
	// must not win again until its new instant arrives.
	m.SetKey(0, 12)
	if m.IsZero(0, 5) {
		t.Fatal("SetKey left host 0 drained")
	}
	if got := m.ArgMin(5); got != 2 {
		t.Fatalf("ArgMin(5) after resurrecting 0 = %d, want 2", got)
	}
	// Advance past every key: all hosts drain, lowest index wins again.
	if got := m.ArgMin(12); got != 0 {
		t.Fatalf("ArgMin(12) = %d, want 0", got)
	}
	for i := 0; i < 4; i++ {
		if !m.IsZero(i, 12) {
			t.Fatalf("host %d not drained at now past every key", i)
		}
	}
}
