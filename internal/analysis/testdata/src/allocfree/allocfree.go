// Package allocfree is the golden fixture for the //sim:noalloc
// contract analyzer: allocation sites in annotated functions and their
// static callees, the panic-path exemption, and the //lint:allow escape
// hatch for documented amortized-growth appends.
package allocfree

import "fmt"

// ring is a recycled buffer in the style of the kernel's event heap.
type ring struct {
	buf  []int
	head int
}

// Push is a hot-path entry point under the noalloc contract; the helper
// it calls is checked too.
//
//sim:noalloc
func (r *ring) Push(v int) {
	r.ensure()
	r.buf = append(r.buf, v) //lint:allow allocfree capacity pre-grown by ensure; append never reallocates here
	grow(r)
}

// ensure is reached from Push, so the contract applies here without its
// own annotation.
func (r *ring) ensure() {
	if r.buf == nil {
		r.buf = make([]int, 0, 64) // want `\(\*allocfree\.ring\)\.ensure calls make inside a //sim:noalloc region \(noalloc via \(\*allocfree\.ring\)\.Push -> \(\*allocfree\.ring\)\.ensure\)`
	}
}

// grow allocates two ways; both are reported with the chain that makes
// them hot-path violations.
func grow(r *ring) {
	r.buf = append(r.buf, 0) // want `allocfree\.grow calls append inside a //sim:noalloc region`
	_ = new(ring)            // want `allocfree\.grow calls new inside a //sim:noalloc region`
}

// Pop panics on contract violation: panic arguments are not steady
// state, so the formatting allocation is exempt, and so is the helper
// that builds the message.
//
//sim:noalloc
func (r *ring) Pop() int {
	if len(r.buf) == 0 {
		panic(fmt.Sprintf("pop of empty ring %d", r.head))
	}
	if r.head < 0 {
		panic(describeHead(r.head))
	}
	v := r.buf[len(r.buf)-1]
	r.buf = r.buf[:len(r.buf)-1]
	return v
}

// describeHead is called only inside a panic's arguments, so the walk
// never reaches it and its allocations are not findings.
func describeHead(head int) string {
	return fmt.Sprintf("ring head %d", head)
}

// Observe boxes its operand into an interface parameter — one heap
// value per call.
//
//sim:noalloc
func (r *ring) Observe(sink func(any)) {
	sink(r.head) // want `boxes a int into interface`
}

// Describe concatenates strings and builds a capturing closure: two
// allocations per call.
//
//sim:noalloc
func (r *ring) Describe(name string) (string, func() int) {
	label := "ring:" + name // want `concatenates strings inside a //sim:noalloc region`
	probe := func() int {   // want `builds a capturing closure inside a //sim:noalloc region`
		return r.head
	}
	_ = label
	return name, probe
}

// node is a heap-linked element, and index a map keyed by value.
type node struct{ next *node }

// Link allocates a node per call and files it in a map: taking a
// composite literal's address escapes here, and a map store allocates
// whenever the key is new. Panics if index has no entry for 0.
//
//sim:noalloc
func (r *ring) Link(index map[int]*node, counts map[int]int) *node {
	n := &node{}        // want `\(\*allocfree\.ring\)\.Link takes the address of a composite literal inside a //sim:noalloc region`
	index[r.head] = n   // want `stores into a map inside a //sim:noalloc region`
	counts[r.head]++    // want `stores into a map inside a //sim:noalloc region`
	counts[r.head] += 2 // want `stores into a map inside a //sim:noalloc region`
	if index[0] == nil {
		panic(&node{}) // panic arguments stay exempt
	}
	//lint:allow allocfree a documented first-use path may file its entry
	index[-1] = &node{next: n}
	return n
}

// Reset is init-path code with no annotation and is unreachable from any
// annotated function: it may allocate freely.
func (r *ring) Reset(n int) {
	r.buf = make([]int, 0, n)
}

// staticProbe is capture-free: it compiles to a static func value, not a
// closure, so noalloc code may build it.
//
//sim:noalloc
func staticProbe() func() int {
	return func() int { return 0 }
}
