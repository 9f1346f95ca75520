// Package hostindex provides incremental argmin indices over a fixed set
// of host ids 0..h-1, the data structures behind the O(log h) host
// selection fast path in internal/server and internal/policy.
//
// Three structures:
//
//   - Tree: a tournament (complete binary segment) tree computing
//     argmin over (key[i], i) lexicographically — strictly smallest key
//     first, lowest host index among exact key ties, which is precisely
//     the pick of a lowest-index-wins linear scan. Every node stores its
//     winner's id and key, the key as an order-preserving uint64, so a
//     match is an integer compare-and-select that never reads a key
//     through an id. Point updates are O(log h); the global argmin is
//     O(1) (the root); range argmin is O(log h).
//   - BitSet: a dense bitmap over host ids with a lowest-set-bit query,
//     used as an idle-host freelist. All operations are O(h/64) or
//     better.
//   - TimedMin: a Tree answering argmin over the *clamped* key
//     max(key[i]-now, 0) that Least-Work-Left-style comparisons use.
//     Hosts whose clamped key is exactly zero tie, and the tie breaks to
//     the lowest index, so a query descends to the leftmost host with
//     key <= now when there is one and otherwise reads the root (see the
//     tie-break note in ARCHITECTURE.md § Host-selection indices). A
//     drained host holds key -Inf, which is <= every instant.
//
// None of the operations allocate once the structure has been Reset to
// its host count: all state lives in reusable backing arrays, so the
// per-event index maintenance inside a simulation is allocation-free.
package hostindex

import (
	"fmt"
	"math"
	"math/bits"
)

// ordered maps a non-NaN float onto a uint64 whose unsigned order is the
// float order: non-negative floats get their sign bit set, negative ones
// have every bit flipped. -0 is folded onto +0 first (adding +0 turns -0
// into +0 and leaves every other float as it is), so the two still tie,
// as they do under the float comparison.
func ordered(f float64) uint64 {
	b := math.Float64bits(f + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// unordered inverts ordered (a -0 key comes back as +0).
func unordered(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// absent is ordered(+Inf), the key of an absent host and of the padding
// leaves past the host count; drained is ordered(-Inf), the key of a
// TimedMin host with no work.
const (
	absent  uint64 = 0xFFF0_0000_0000_0000
	drained uint64 = 0x000F_FFFF_FFFF_FFFF
)

// node is the result of one match: the winner's id and its ordered key.
// Leaf base+i is host i itself.
type node struct {
	key uint64
	id  int32
}

// lowerRight resolves a match between sibling subtrees. Every id on the
// left is lower than every id on the right, so the (key, id) order needs
// only the keys: the right winner takes the match with a strictly smaller
// key, the left keeps it on a tie. The borrow of right-left is that
// comparison, and the select is a mask, so the match has no branch.
func lowerRight(l, r node) node {
	_, b := bits.Sub64(r.key, l.key, 0)
	m := -b
	return node{key: l.key ^ (l.key^r.key)&m, id: l.id ^ (l.id^r.id)&int32(m)}
}

// lower is the general (key, id) match, for nodes in either order: the
// borrow chain of (b.key, b.id) - (a.key, a.id) is set exactly when b is
// lexicographically smaller.
func lower(a, b node) node {
	_, c := bits.Sub64(uint64(b.id), uint64(a.id), 0)
	_, c = bits.Sub64(b.key, a.key, c)
	m := -c
	return node{key: a.key ^ (a.key^b.key)&m, id: a.id ^ (a.id^b.id)&int32(m)}
}

// Tree is an indexed tournament tree over host ids 0..n-1 ordered by
// (key, id). A host with key +Inf is effectively absent: it can still win
// (some id always wins), so callers that use +Inf as "absent" must check
// the winner's key. The zero value is empty; call Reset before use.
type Tree struct {
	n    int    // live host count
	base int    // leaf offset; power of two >= n
	node []node // node j's match result, root at 1, host i's leaf at base+i
}

// Reset sizes the tree for h hosts and sets every key to +Inf, reusing
// the backing array when it is large enough. Panics if h < 1.
func (t *Tree) Reset(h int) { t.fill(h, absent) }

// fill sizes the tree for h hosts, all with ordered key k; padding leaves
// past h stay absent, so with any k they never win over a live host.
// Panics if h < 1.
func (t *Tree) fill(h int, k uint64) {
	if h < 1 {
		panic(fmt.Sprintf("hostindex: need at least one host, got %d", h))
	}
	base := 1
	for base < h {
		base <<= 1
	}
	t.n = h
	t.base = base
	if cap(t.node) < 2*base {
		t.node = make([]node, 2*base)
	}
	t.node = t.node[:2*base]
	for i := 0; i < base; i++ {
		t.node[base+i] = node{key: absent, id: int32(i)}
		if i < h {
			t.node[base+i].key = k
		}
	}
	for j := base - 1; j >= 1; j-- {
		t.node[j] = lowerRight(t.node[2*j], t.node[2*j+1])
	}
}

// Key reports host i's current key (+Inf when absent; -0 reads as +0).
func (t *Tree) Key(i int) float64 { return unordered(t.node[t.base+i].key) }

// Update sets host i's key and replays its matches up the tree. NaN keys
// panic: they have no total order and would corrupt every match above.
//
//sim:noalloc
func (t *Tree) Update(i int, key float64) {
	if math.IsNaN(key) {
		panic(fmt.Sprintf("hostindex: NaN key for host %d", i))
	}
	nd := t.node
	j := t.base + i
	nd[j].key = ordered(key)
	for j >>= 1; j >= 1; j >>= 1 {
		nd[j] = lowerRight(nd[2*j], nd[2*j+1])
	}
}

// Min reports the host with the lexicographically least (key, id) and its
// key. When every key is +Inf the lowest id wins and the key reports the
// absence.
//
//sim:noalloc
func (t *Tree) Min() (int, float64) {
	r := t.node[1]
	return int(r.id), unordered(r.key)
}

// RangeMin reports the argmin over hosts lo <= i < hi and its key.
// Panics if the range is empty or out of bounds: the caller owns range
// validity (policies validate their group bounds).
//
//sim:noalloc
func (t *Tree) RangeMin(lo, hi int) (int, float64) {
	t.checkRange(lo, hi)
	best := node{key: math.MaxUint64, id: math.MaxInt32} // loses to any host
	for l, r := lo+t.base, hi+t.base; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			best = lower(best, t.node[l])
			l++
		}
		if r&1 == 1 {
			r--
			best = lower(best, t.node[r])
		}
	}
	return int(best.id), unordered(best.key)
}

// checkRange panics if the range is empty or out of bounds.
func (t *Tree) checkRange(lo, hi int) {
	if lo < 0 || hi > t.n || lo >= hi {
		panic(fmt.Sprintf("hostindex: range [%d, %d) invalid for %d hosts", lo, hi, t.n))
	}
}

// leftmostAtMost descends from node j, whose subtree holds a key <= k, to
// the leftmost host in that subtree with key <= k: at each level it steps
// right exactly when the left child's minimum exceeds k (the borrow of
// k-left), one compare-and-select per level.
func (t *Tree) leftmostAtMost(j int, k uint64) int {
	nd := t.node
	for j < t.base {
		j <<= 1
		_, b := bits.Sub64(k, nd[j].key, 0)
		j += int(b)
	}
	return j - t.base
}

// BitSet is a dense bitmap over host ids with a lowest-set-bit query.
// The zero value is empty; call Reset before use.
type BitSet struct {
	w []uint64
	n int
}

// Reset sizes the set for h hosts with every bit clear, reusing the
// backing array when possible. Panics if h < 1.
func (s *BitSet) Reset(h int) {
	if h < 1 {
		panic(fmt.Sprintf("hostindex: need at least one host, got %d", h))
	}
	words := (h + 63) / 64
	if cap(s.w) < words {
		s.w = make([]uint64, words)
	}
	s.w = s.w[:words]
	for i := range s.w {
		s.w[i] = 0
	}
	s.n = h
}

// SetAll sets every host's bit.
func (s *BitSet) SetAll() {
	for i := range s.w {
		s.w[i] = ^uint64(0)
	}
	// Clear the padding bits past n so Min never reports a ghost host.
	if rem := s.n % 64; rem != 0 {
		s.w[len(s.w)-1] = (uint64(1) << rem) - 1
	}
}

// Set marks host i.
func (s *BitSet) Set(i int) { s.w[i>>6] |= 1 << (uint(i) & 63) }

// Clear unmarks host i.
func (s *BitSet) Clear(i int) { s.w[i>>6] &^= 1 << (uint(i) & 63) }

// Min reports the lowest marked host, or -1 when the set is empty.
//
//sim:noalloc
func (s *BitSet) Min() int {
	for wi, w := range s.w {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// TimedMin is an argmin index over the clamped key max(key[i]-now, 0),
// the comparison a Least-Work-Left scan makes: key[i] is the absolute
// instant host i drains (true or believed), now is the query instant,
// and every host at or past its drain instant ties at zero work left.
//
// It is one Tree. A drained host holds key -Inf, so "drained" needs no
// class of its own: at any instant the hosts with zero work left are
// exactly those with key <= now. A query resolves the scan's pick: the
// lowest-index host with key <= now if there is one — the clamp ties all
// of them, and a linear scan keeps the first — otherwise the tree's
// (key, id) argmin. Query instants must not be NaN.
type TimedMin struct {
	tree Tree
}

// Reset sizes the index for h hosts, all drained. Panics if h < 1.
func (m *TimedMin) Reset(h int) { m.tree.fill(h, drained) }

// SetKey gives host i a drain instant.
//
//sim:noalloc
func (m *TimedMin) SetKey(i int, key float64) { m.tree.Update(i, key) }

// SetZero marks host i drained: its key becomes -Inf.
//
//sim:noalloc
func (m *TimedMin) SetZero(i int) { m.tree.Update(i, math.Inf(-1)) }

// IsZero reports whether host i has no work left at instant now, that is
// whether its drain instant is at or before now.
func (m *TimedMin) IsZero(i int, now float64) bool {
	return m.tree.node[m.tree.base+i].key <= ordered(now)
}

// Key reports host i's drain instant, -Inf once SetZero drained it.
func (m *TimedMin) Key(i int) float64 { return m.tree.Key(i) }

// ArgMin reports the host a lowest-index-wins linear scan over the
// clamped keys would pick at the query instant.
//
//sim:noalloc
func (m *TimedMin) ArgMin(now float64) int {
	k := ordered(now)
	if r := m.tree.node[1]; r.key > k {
		return int(r.id)
	}
	return m.tree.leftmostAtMost(1, k)
}

// ArgMinRange is ArgMin restricted to hosts lo <= i < hi: the leftmost of
// the range's canonical segments whose minimum is <= now holds the pick,
// otherwise the range argmin is the pick.
// Panics if the range is empty or out of bounds.
//
//sim:noalloc
func (m *TimedMin) ArgMinRange(lo, hi int, now float64) int {
	t := &m.tree
	t.checkRange(lo, hi)
	k := ordered(now)
	// The bottom-up walk meets the left-side segments left to right and
	// the right-side ones right to left, and every left-side segment lies
	// left of every right-side one: the pick's segment is the first
	// left-side hit, else the last right-side hit.
	first, last := 0, 0
	for l, r := lo+t.base, hi+t.base; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			if first == 0 && t.node[l].key <= k {
				first = l
			}
			l++
		}
		if r&1 == 1 {
			r--
			if t.node[r].key <= k {
				last = r
			}
		}
	}
	if first == 0 {
		first = last
	}
	if first == 0 {
		i, _ := t.RangeMin(lo, hi)
		return i
	}
	return t.leftmostAtMost(first, k)
}
