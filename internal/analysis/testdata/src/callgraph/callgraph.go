// Package callgraph is the fixture for the call-graph builder itself:
// static calls, mutual recursion, closures, and the interface dispatch,
// function references and dynamic calls the graph deliberately does not
// follow. The builder test asserts reachability sets over this package
// directly.
package callgraph

// policy dispatches through an interface; neither implementor gains an
// edge from the call site in drive.
type policy interface {
	pick(n int) int
}

type roundRobin struct{ next int }

func (r *roundRobin) pick(n int) int {
	r.next = (r.next + 1) % n
	return r.next
}

type leastLoaded struct{ load []int }

func (l *leastLoaded) pick(n int) int {
	return argmin(l.load[:n])
}

// argmin is reached only through leastLoaded.pick.
func argmin(xs []int) int {
	best := 0
	for i := range xs {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

// drive calls through the interface, refers to a helper as a value, and
// calls one function statically.
func drive(p policy, hosts int) int {
	f := observer // a value reference: no edge
	f(hosts)
	return ping(p.pick(hosts))
}

// observer is referenced as a value in drive, never called directly.
func observer(n int) {}

// ping and pong are mutually recursive; reachability from either must
// include both and terminate.
func ping(n int) int {
	if n <= 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int {
	if n <= 0 {
		return 1
	}
	return ping(n - 1)
}

// viaClosure calls ping from inside a closure: the edge belongs to
// viaClosure, the enclosing declaration.
func viaClosure(n int) int {
	f := func() int { return ping(n) }
	return f()
}

// dynamic launders a call through a func value: no edge to ping or pong.
func dynamic(n int) int {
	fns := []func(int) int{ping, pong}
	return fns[n%2](n)
}

// isolated is reachable from nothing in this package.
func isolated() {}
