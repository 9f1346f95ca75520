package server

import (
	"fmt"
	"math"
	"sync"

	"sita/internal/sim"
	"sita/internal/workload"
)

// This file is the direct-recurrence fast path. When the assignment
// decision reads at most host work (a WorkPolicy), each FCFS host evolves
// as an independent single-server queue and every job's service window
// follows Lindley's recurrence:
//
//	start  = max(free[host], arrival)
//	finish = start + size
//	free[host] = finish
//
// — exactly the float-op sequence the event-heap path performs, so the
// record stream is reproduced bit for bit without a sim.Engine and
// without per-event heap traffic. The replay runs in two phases:
//
// Phase 1 (arrival order): assign every job (same Assign call sequence,
// hence same RNG draw order, as the engine's arrival events), run the
// recurrence, and thread each host's jobs onto a FIFO chain. No heap, no
// event interleaving — a branch-light array pass. The policy sees a
// workView that answers WorkLeft, Idle and the work argmins from the
// clocks at the job's arrival instant: the work a host has left is its
// drain instant minus now, and the drain instant is free[host], the same
// float, built by the same additions, as the engine's readyAt. A host
// whose departure falls exactly at that instant is still busy, as on the
// engine, where arrivals precede departures at equal times. The argmin
// index exists only once a policy has asked for it, so the state-blind
// policies (Random, Round-Robin, SITA) run the bare recurrence.
//
// Phase 2 (emission order): the engine delivers completions globally
// sorted by (departure time, schedule order), where schedule order is the
// order service starts were issued. Per host, departures are already in
// chain order, so the global order is an h-way merge of sorted lists: a
// loser tree over the hosts' current chain heads yields each next
// departure in O(log h) — one comparison per level, against the loser
// stored at each node, with the running winner carried in a register —
// and the per-record accounting (the same Welford-stream adds, in the
// same order, as Result.observe, including one SizeClass call per
// post-warmup emission for the class tally) happens inline at the
// emission site; only kept records and OnRecord go through cold.
//
// The only subtlety is the tie-break. The engine breaks equal departure
// times by event sequence number: arrivals hold the seqs 0..n-1, which
// the engine's arrival feed (sim.Run) takes before anything fires, and
// each departure is scheduled — and numbered — at the instant its job
// starts service, so equal-time departures emit in service-start order.
// Start order itself is lexicographic in (start time, trigger seq): a
// start is triggered either by the job's own arrival event (host idle;
// trigger seq = arrival ordinal < n) or by its FCFS predecessor's
// departure event (trigger seq = that departure's seq >= n). The replay
// reproduces that order exactly without interleaving by keying each
// pending departure with the triple
//
//	(finish, start, trigger)
//
// where trigger is the job's own arrival ordinal for idle starts — known
// in phase 1 — and n + (predecessor's emission rank) for queued starts —
// known in phase 2 the moment the predecessor is emitted, which is exactly
// when the job's key enters the tree. Comparing triples is equivalent to
// comparing the engine's (at, seq) pairs: equal finishes compare start
// instants (earlier start was scheduled first), and equal start instants
// compare triggers, where every idle start (trigger < n) precedes every
// queued start (trigger >= n) at the same instant — the engine's
// arrivals-first rule — and triggers within each class carry the engine's
// processing order by construction. The keys do not depend on how the
// hosts were chosen.
//
// Phase 1 polls Config.Interrupt every sim.InterruptEvery jobs, the
// engine's cadence; an interrupted run stops there, before phase 2 folds
// in any completion. Policies that read job counts or the idle freelist
// (Shortest-Queue, Central-Queue), pull policies, and processor sharing
// still require the engine; Run dispatches automatically.

// queuedTrigger marks a job whose service start is triggered by its FCFS
// predecessor's departure; the real trigger key is assigned in phase 2
// when that predecessor is emitted.
const queuedTrigger = ^uint32(0)

// directJob is the phase-2 view of one job, packed so an emission touches
// a single 32-byte struct instead of four parallel arrays. The job's ID is
// its index, the arrival ordinal assign stamps, so it is not stored.
type directJob struct {
	arr    float64
	size   float64
	start  float64
	finish float64
}

// directLink is the chain metadata for one job: the same-host successor in
// arrival order (-1 when none) and the start trigger (the job's own
// arrival ordinal for idle starts, queuedTrigger until resolved for queued
// starts).
type directLink struct {
	next int32
	trig uint32
}

// departKey orders one host's next pending departure: finish time, then
// service start time, then start trigger — the engine's (time, seq) event
// order, decomposed per the file comment. Hosts with nothing pending hold
// +Inf sentinels.
//
// The time fields hold IEEE-754 bit patterns (math.Float64bits), not
// floats: simulated clocks live in [0, +Inf], where the bit patterns are
// order-isomorphic to the doubles, so an integer compare is the exact
// float compare — and unlike floats, integers are eligible for CMOV, so
// the tournament replay's data-dependent winner selects compile
// branch-free instead of as unpredictable branches. (The differential
// tests against the engine are the oracle that this encoding never
// reorders a tie.)
type departKey struct {
	at   uint64
	st   uint64
	trig uint64
}

// directRunner holds the direct path's reusable scratch state. Acquired
// from directPool per run, so steady-state sweeps stop touching the
// allocator once the arrays have grown to the largest (jobs, hosts) seen.
type directRunner struct {
	// Per-host state.
	free []float64 // Lindley clock: finish of the last job assigned to the host
	last []int32   // most recently assigned job, -1 when none yet
	head []int32   // next job to depart (phase 2 chain cursor), -1 when drained

	// Loser tree over the hosts' pending departures. keys is sized to the
	// leaf count m (smallest power of two >= hosts); lose[0] is the
	// overall winner and lose[1..m-1] the loser at each internal node.
	// win is build-time scratch.
	keys []departKey
	lose []int32
	win  []int32
	m    int

	// Per-job state, indexed by arrival ordinal.
	job  []directJob
	link []directLink

	// The policy and the WorkView handed to it.
	policy WorkPolicy
	view   workView

	// Accounting sinks: phase 2 folds each emission into res inline —
	// the same update sequence as Result.observe. cold is non-nil only
	// when the run keeps records or has an OnRecord hook.
	res       *Result
	warmup    int
	sizeClass func(float64) int
	cold      func(JobRecord)

	// interrupt is the run's Config.Interrupt, polled by assign.
	interrupt func() bool
}

// directPool recycles runner scratch across simulation cells, mirroring
// sim's engine pool: a sweep acquires thousands of times but allocates a
// handful of runners.
var directPool = sync.Pool{New: func() any { return new(directRunner) }}

// setup sizes the scratch for one run, resets per-host state and arms
// the view over the clocks for policy p. Per-job arrays are not cleared:
// phase 1 writes every slot phase 2 reads. Slot n of the job/link arrays is the sentinel a drained chain points at: its
// +Inf key never wins the tree, which spares the emission loop a
// successor-exists branch. Slots n+1..n+h are per-host dummy chain tails:
// last[w] starts at dummy w, so appending to a chain is one unconditional
// link store instead of a first-job branch, and the chain head is read
// back as link[n+1+w].next. The Lindley clocks start at -Inf, not 0: the
// max with any finite arrival is unchanged, and it makes "host idle at
// this arrival" a single float compare (a fresh host's clock is below
// every arrival by construction).
func (d *directRunner) setup(n, h int, p WorkPolicy) {
	m := 1
	for m < h {
		m <<= 1
	}
	if cap(d.free) < h || cap(d.keys) < m {
		d.free = make([]float64, h)
		d.last = make([]int32, h)
		d.head = make([]int32, h)
		d.keys = make([]departKey, m)
		d.lose = make([]int32, m)
		d.win = make([]int32, 2*m)
	}
	d.free = d.free[:h]
	d.last = d.last[:h]
	d.head = d.head[:h]
	d.keys = d.keys[:m]
	d.lose = d.lose[:m]
	d.win = d.win[:2*m]
	d.m = m
	if cap(d.job) < n+1+h {
		d.job = make([]directJob, n+1+h)
		d.link = make([]directLink, n+1+h)
	}
	d.job = d.job[:n+1+h]
	d.link = d.link[:n+1+h]
	inf := math.Inf(1)
	sentinel := int32(n)
	d.job[n] = directJob{arr: inf, size: inf, start: inf, finish: inf}
	d.link[n] = directLink{next: sentinel, trig: 0}
	ninf := math.Inf(-1)
	for i := 0; i < h; i++ {
		d.free[i] = ninf
		d.last[i] = int32(n+1) + int32(i)
		d.link[n+1+i] = directLink{next: sentinel, trig: 0}
	}
	d.policy = p
	d.view.reset(d.free)
}

// release drops the per-run references (policy, result, callbacks) so a
// pooled runner never retains a caller's objects, then returns it to the
// pool.
func (d *directRunner) release() {
	d.policy = nil
	d.view.reset(nil)
	d.res = nil
	d.sizeClass = nil
	d.cold = nil
	d.interrupt = nil
	directPool.Put(d)
}

// replay runs both phases over the job list, folding one
// completion per job into d.res in the engine's exact emission order,
// and reports whether d.interrupt stopped phase 1, in which case nothing
// is folded in. O(n log h); in practice two branch-light array passes,
// since h is small next to n.
//
//sim:noalloc
func (d *directRunner) replay(jobs []workload.Job) (interrupted bool) {
	if d.assign(jobs) {
		return true
	}
	d.emitAll(len(jobs))
	return false
}

// assign is phase 1: dispatch every job in arrival order, run Lindley's
// recurrence on the chosen host's clock, and thread the per-host FCFS
// chains that phase 2 merges; the loop's copy of each job carries its
// arrival ordinal as its ID. Once the policy's first argmin query has
// built the view's work index, each new clock is propagated into it.
// d.interrupt is polled before every sim.InterruptEvery-th job after the
// first; assign reports whether a poll stopped it. Doubles as the
// sorted-arrival check, saving a separate pass over the trace. Panics if
// the jobs are not sorted by arrival or the policy returns an
// out-of-range host.
//
//sim:noalloc
func (d *directRunner) assign(jobs []workload.Job) (interrupted bool) {
	sentinel := int32(len(jobs))
	prev := 0.0
	view := &d.view
	p := d.policy
	for i := range jobs {
		// An inline poll, not a loop over blocks: the nested loop kept
		// more state live across Assign's interface call, and reloading
		// it cost every job.
		if uint(i)%sim.InterruptEvery == 0 && i > 0 && d.interrupt != nil && d.interrupt() {
			return true
		}
		j := jobs[i]
		j.ID = i
		if j.Arrival < prev {
			panic(fmt.Sprintf("server: job %d arrives at %v before %v", i, j.Arrival, prev))
		}
		prev = j.Arrival
		view.now = j.Arrival
		idx := p.Assign(j, view)
		if idx < 0 || idx >= len(d.free) {
			panic(fmt.Sprintf("server: policy %q returned host %d of %d on the direct path", p.Name(), idx, len(d.free)))
		}
		free := d.free[idx]
		st := j.Arrival
		if free > st {
			st = free
		}
		// Idle start: the predecessor (if any) finished strictly before
		// this arrival — a fresh host's -Inf clock is below every arrival.
		// At an exact tie the host is still busy when the arrival is
		// processed (arrival seqs precede departure seqs), so the job
		// queues and its trigger is the predecessor's departure.
		tk := queuedTrigger
		if j.Arrival > free {
			tk = uint32(i)
		}
		fin := st + j.Size
		d.job[i] = directJob{arr: j.Arrival, size: j.Size, start: st, finish: fin}
		d.link[i] = directLink{next: sentinel, trig: tk}
		d.free[idx] = fin
		if view.indexed {
			view.work.SetKey(idx, fin)
		}
		d.link[d.last[idx]].next = int32(i)
		d.last[idx] = int32(i)
	}
	return false
}

// emitAll is phase 2: merge the per-host departure chains through the
// loser tree and fold every completion into d.res, in the engine's
// (time, seq) emission order, via the same update sequence as
// Result.observe.
//
//sim:noalloc
func (d *directRunner) emitAll(n int) {
	inf := math.Float64bits(math.Inf(1))
	for i := 0; i < d.m; i++ {
		if i < len(d.head) {
			// A chain head — read off host i's dummy tail slot — is always
			// an idle start, so its trigger is already resolved; an unused
			// host's head is the sentinel, whose job carries the same +Inf
			// key as a padding leaf.
			e := d.link[n+1+i].next
			d.head[i] = e
			d.keys[i] = departKey{
				at:   math.Float64bits(d.job[e].finish),
				st:   math.Float64bits(d.job[e].start),
				trig: uint64(d.link[e].trig),
			}
		} else {
			d.keys[i] = departKey{at: inf, st: inf, trig: uint64(i)}
		}
	}
	// Build: compute the winner tree bottom-up in scratch, store the loser
	// of each match at its node; lose[0] is the overall winner.
	for i := 0; i < d.m; i++ {
		d.win[d.m+i] = int32(i)
	}
	for i := d.m - 1; i >= 1; i-- {
		w, l := d.win[2*i], d.win[2*i+1]
		if d.nodeLess(l, w) {
			w, l = l, w
		}
		d.win[i] = w
		d.lose[i] = l
	}
	if d.m == 1 {
		d.lose[0] = 0
	} else {
		d.lose[0] = d.win[1]
	}

	res := d.res
	for r := 0; r < n; r++ {
		w := d.lose[0]
		e := d.head[w]
		dj := d.job[e]

		res.PerHostJobs[w]++
		res.PerHostWork[w] += dj.size
		if dj.finish > res.Horizon {
			res.Horizon = dj.finish
		}
		if int(e) >= d.warmup {
			wait := dj.start - dj.arr
			resp := wait + dj.size
			slow := resp / dj.size
			res.Slowdown.Add(slow)
			res.Response.Add(resp)
			res.Wait.Add(wait)
			if d.sizeClass != nil {
				res.Classes.Stream(d.sizeClass(dj.size)).Add(slow)
			}
		}
		if d.cold != nil {
			d.cold(JobRecord{
				ID: int(e), Host: int(w),
				Arrival: dj.arr, Size: dj.size,
				Start: dj.start, Departure: dj.finish,
			})
		}

		// Advance the chain. A drained chain lands on the sentinel job,
		// whose +Inf key never wins, so no successor-exists branch is
		// needed. The trigger select compiles branch-free: a queued
		// successor's service starts now, triggered by this departure, so
		// its key is n + this emission's rank — which sorts after every
		// arrival trigger (< n) and in emission order among departure
		// triggers, the engine's event sequence order.
		s := d.link[e].next
		tk := uint64(d.link[s].trig)
		if tk == uint64(queuedTrigger) {
			tk = uint64(n + r)
		}
		ck := departKey{at: math.Float64bits(d.job[s].finish), st: math.Float64bits(d.job[s].start), trig: tk}
		d.keys[w] = ck
		d.head[w] = s

		// Replay the loser-tree path: carry the candidate winner up from
		// the changed leaf, swapping with any stored loser that beats it.
		// The carried winner's key rides in registers (ck) so each level
		// is one independent load pair plus integer compare-and-selects —
		// the winner flips are data-dependent coin tosses a branch
		// predictor cannot learn, so they must be CMOVs, which the
		// bit-pattern keys make possible.
		c := w
		for i := (d.m + int(w)) >> 1; i >= 1; i >>= 1 {
			li := d.lose[i]
			lk := d.keys[li]
			swap := keyLess(lk, ck)
			nl := li
			if swap {
				nl = c
			}
			d.lose[i] = nl
			if swap {
				c = li
				ck = lk
			}
		}
		d.lose[0] = c
	}
}

// keyLess orders pending departures by (finish, start, trigger) — the
// event heap's (time, seq) order decomposed per the file comment. The
// compares are integer compares on float bit patterns; see departKey.
// The equality branches are near-perfectly predicted (distinct finish
// times dominate); only the result is unpredictable, and it feeds CMOVs
// at the call sites.
func keyLess(a, b departKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.st != b.st {
		return a.st < b.st
	}
	return a.trig < b.trig
}

// nodeLess is the index form of keyLess, used by the build pass.
func (d *directRunner) nodeLess(a, b int32) bool {
	return keyLess(d.keys[a], d.keys[b])
}

// DirectEligible reports whether Run would take the direct path for this
// configuration. The decision reads the run's own Config and nothing
// else: the policy is a WorkPolicy and the order check is not armed.
// cfg.OrderCheck asserts event-heap dispatch order, so it pins the run to
// the engine — which also makes it how tests, benchmarks and the property
// harness force the engine for heap-vs-direct comparisons.
func DirectEligible(cfg Config) bool {
	_, work := cfg.Policy.(WorkPolicy)
	return work && !cfg.OrderCheck
}
