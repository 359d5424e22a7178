package sim

import "fmt"

// Sentinel values for node.idx locating a node within the engine's queue.
const (
	// idxFree marks a node that is not queued: fired, cancelled, pooled, or
	// a Timer at rest.
	idxFree int32 = -1
	// idxLane marks a node queued on a fixed-delay lane.
	idxLane int32 = -2
)

// node is the engine-owned storage of one scheduled callback. Nodes are
// pooled: the moment one leaves the queue (fired or cancelled) it returns to
// the engine's free list and its generation counter is bumped, which
// atomically invalidates every Event handle still pointing at it. Nodes
// owned by a Timer are dedicated to that timer and never enter the pool.
type node struct {
	eng *Engine
	at  Time
	seq uint64
	gen uint64
	idx int32
	// owned marks a Timer-dedicated node.
	owned bool

	// Exactly one of fn / fnArg is set. fnArg carries its arguments inline
	// in the node so hot paths can schedule without allocating a closure.
	fn    func()
	fnArg func(arg any, a, b uint64)
	arg   any
	a, b  uint64
}

// heapEnt is one heap or lane slot. The ordering key (at, seq) is stored
// inline so sift comparisons never chase the node pointer, and so a lane
// tombstone keeps the key it was queued with after its node moves on.
type heapEnt struct {
	at  Time
	seq uint64
	n   *node
}

// Event is a cancellable handle to a scheduled callback. It is a small
// value, not a pointer: the zero Event is inert (Cancel and Active are
// no-ops), and a handle whose event already fired — even if the underlying
// storage has since been recycled for an unrelated event — is detected by
// its generation counter, so a stale Cancel can never hit the wrong event.
type Event struct {
	n   *node
	gen uint64
}

// At returns the virtual time the event is scheduled for, or zero if the
// event is no longer pending.
func (ev Event) At() Time {
	if !ev.Active() {
		return 0
	}
	return ev.n.at
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired, was cancelled, or is the zero Event is a safe no-op.
func (ev Event) Cancel() {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.idx == idxFree {
		return
	}
	e := n.eng
	if n.idx >= 0 {
		e.heapRemove(int(n.idx))
	} else {
		n.idx = idxFree // the lane entry becomes a tombstone
	}
	e.live--
	if !n.owned {
		e.recycle(n)
	}
}

// Active reports whether the event is still pending (not fired or
// cancelled). The zero Event is never active.
func (ev Event) Active() bool {
	return ev.n != nil && ev.n.gen == ev.gen && ev.n.idx != idxFree
}

// Engine is a single-threaded discrete-event simulator.
//
// Events are ordered by (time, sequence): every schedule call consumes
// exactly one sequence number, so the firing order of a run is a pure
// function of the schedule/cancel call sequence — never of heap layout,
// pool state, or pointer values. The zero value is not usable; construct
// with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// heap holds events scheduled strictly in the future (at > now at
	// schedule time), a 4-ary min-heap on (at, seq) with inline keys —
	// half the levels of a binary heap and sibling keys on one cache line,
	// which is where pop-heavy simulation loops spend their compares.
	heap []heapEnt
	// zero is the d = 0 lane: every event scheduled for the current instant
	// (at == now) lands there in seq order, skipping the heap.
	zero *Lane
	// lanes are the fixed-delay queues (see Lane), one per delay, zero
	// first. lmAt and lmSeq cache the smallest front key over all lanes,
	// tombstones included, and lm its lane (nil, with a key that sorts
	// after every event, when every lane is empty): a heap pop pays one
	// compare against it, and a pop that meets a tombstone at the cached
	// front, or pops a lane entry, rescans the lane fronts.
	lanes []*Lane
	lm    *Lane
	lmAt  Time
	lmSeq uint64
	// free is the node pool. Nodes are recycled as soon as they fire or are
	// cancelled; generation counters on the handles make recycling safe.
	free []*node
	// live counts queued events, making Pending O(1).
	live int

	rng *Rand
	// procs is the ordered registry of live coroutines, in registration
	// order. It is deliberately a slice, not a map: any future code that
	// iterates the live procs (draining, leak reports, debugging dumps)
	// must observe them in a seed-stable order, never Go's randomized map
	// order (simlint's maprange rule enforces the same invariant).
	procs    []*Proc
	stopped  bool
	executed uint64

	// running and until describe the Run call in progress, if any: SkipTo
	// fires in place only inside Run and never past its horizon.
	running bool
	until   Time
	// inPlace counts the events SkipTo fired.
	inPlace uint64
}

// NewEngine returns an engine with the clock at zero and the given RNG seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewRand(seed), lmAt: maxTime, lmSeq: maxSeq}
	e.zero = e.Lane(0)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Executed returns the number of events the engine has fired since
// construction. It is a pure function of the run (benchmark/ uses it as
// the simulator's host-ns-per-event denominator), never a simulation input.
// Events fired in place by SkipTo count too: each one consumed the sequence
// number its schedule call would have, and fired exactly when its queued
// twin would have been the next pop, so the count is the same whether Run
// or a Step loop drives the engine.
func (e *Engine) Executed() uint64 { return e.executed }

// InPlace returns how many of the Executed events SkipTo fired in place.
func (e *Engine) InPlace() uint64 { return e.inPlace }

// alloc takes a node from the pool, or makes one.
func (e *Engine) alloc() *node {
	if k := len(e.free) - 1; k >= 0 {
		n := e.free[k]
		e.free[k] = nil
		e.free = e.free[:k]
		return n
	}
	return &node{eng: e, idx: idxFree, gen: 1}
}

// recycle returns a fired or cancelled node to the pool. The generation
// bump invalidates every outstanding handle to it.
func (e *Engine) recycle(n *node) {
	n.gen++
	n.fn, n.fnArg, n.arg = nil, nil, nil
	n.a, n.b = 0, 0
	e.free = append(e.free, n)
}

// enqueue stamps n with the next sequence number and queues it for time t
// (heap, or the zero lane when t == now).
func (e *Engine) enqueue(n *node, t Time) Event {
	e.seq++
	if t == e.now {
		e.zero.push(n, e.seq)
	} else {
		n.at, n.seq = t, e.seq
		e.heapPush(n)
	}
	e.live++
	return Event{n: n, gen: n.gen}
}

// At schedules fn to run at time t. Scheduling in the past panics: the
// simulation would lose causality.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, e.now))
	}
	n := e.alloc()
	n.fn = fn
	return e.enqueue(n, t)
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.At(e.now.Add(d), fn)
}

// AtCall schedules fn(arg, a, b) to run at time t. The arguments travel in
// the event node itself, so a package-level (non-capturing) fn makes the
// whole schedule/fire cycle allocation-free — the closure-free counterpart
// of At for hot paths.
func (e *Engine) AtCall(t Time, fn func(arg any, a, b uint64), arg any, a, b uint64) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, e.now))
	}
	n := e.alloc()
	n.fnArg, n.arg, n.a, n.b = fn, arg, a, b
	return e.enqueue(n, t)
}

// AfterCall schedules fn(arg, a, b) to run d from now. Negative d panics.
func (e *Engine) AfterCall(d Duration, fn func(arg any, a, b uint64), arg any, a, b uint64) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.AtCall(e.now.Add(d), fn, arg, a, b)
}

// Stop halts Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// SkipTo fires in place the event a caller would otherwise schedule now for
// time t, and reports whether it did. On success it consumes that schedule's
// sequence number, counts the firing in Executed, and moves the clock to t;
// the caller then runs the event's work itself, without a queue round trip.
// It refuses, changing nothing, unless the event would be the next pop of
// the Run in progress: when any live event sorts at or before t, when t is
// past Run's horizon, after Stop, or outside Run (so Step-driven loops never
// fire in place). Only a caller whose remaining work after the event would
// be nothing but returning to Run may use it: anything it runs afterwards
// would see the later clock. Scheduling in the past panics, as in At.
func (e *Engine) SkipTo(t Time) bool {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, e.now))
	}
	if !e.running || e.stopped || (e.until > 0 && t > e.until) {
		return false
	}
	if (len(e.heap) > 0 && e.heap[0].at <= t) || e.laneBefore(t, maxSeq) {
		return false
	}
	e.seq++
	e.now = t
	e.executed++
	e.inPlace++
	return true
}

// Pending reports the number of live events in the queue. O(1): cancels
// remove eagerly, so the counter never includes dead entries.
func (e *Engine) Pending() int { return e.live }

// Run executes events until the queue is empty, Stop is called, or the clock
// would pass until (until <= 0 means no limit). It returns the time of the
// last executed event (or the until horizon if it was reached).
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	e.running, e.until = true, until
	// A panic unwinding through Run must not leave SkipTo enabled for a
	// later Step.
	defer e.endRun()
	for !e.stopped {
		n := e.pop()
		if n == nil {
			break
		}
		if until > 0 && n.at > until {
			// Put it back; the horizon was reached first. The node keeps
			// its (at, seq) key, so order is preserved across Run calls
			// (a lane node goes to the heap, which orders any key).
			e.heapPush(n)
			e.live++
			e.now = until
			break
		}
		if n.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = n.at
		e.executed++
		e.fire(n)
	}
	return e.now
}

// endRun disables SkipTo when Run returns or unwinds.
func (e *Engine) endRun() { e.running = false }

// Step executes exactly one event, if any, and reports whether it did.
func (e *Engine) Step() bool {
	n := e.pop()
	if n == nil {
		return false
	}
	if n.at < e.now {
		panic("sim: event queue went backwards")
	}
	e.now = n.at
	e.executed++
	e.fire(n)
	return true
}

// fire recycles n and invokes its callback. Recycling happens before the
// call so the pool stays hot — events the callback schedules reuse the node
// immediately — and so handles to the firing event are already inert inside
// the callback, matching Cancel-after-fire being a no-op.
func (e *Engine) fire(n *node) {
	if n.fnArg != nil {
		fn, arg, a, b := n.fnArg, n.arg, n.a, n.b
		if !n.owned {
			e.recycle(n)
		}
		fn(arg, a, b)
		return
	}
	fn := n.fn
	if !n.owned {
		e.recycle(n)
	}
	fn()
}

// pop removes and returns the globally earliest live event by (at, seq),
// merging the heap top with the lanes' cached minimum; nil if the queue is
// empty.
func (e *Engine) pop() *node {
	if len(e.heap) > 0 {
		top := e.heap[0]
		if !e.laneBefore(top.at, top.seq) {
			e.heapRemove(0)
			e.live--
			return top.n
		}
	} else if !e.laneBefore(maxTime, maxSeq) {
		return nil
	}
	return e.lanePop()
}

// heapPush inserts n into the heap using its (at, seq) key.
func (e *Engine) heapPush(n *node) {
	e.heap = append(e.heap, heapEnt{at: n.at, seq: n.seq, n: n})
	e.siftUp(len(e.heap) - 1)
}

// heapRemove removes slot i, restoring heap order and the displaced node's
// index.
func (e *Engine) heapRemove(i int) {
	h := e.heap
	last := len(h) - 1
	n := h[i].n
	if i != last {
		h[i] = h[last]
	}
	h[last] = heapEnt{}
	e.heap = h[:last]
	if i != last {
		e.siftFix(i)
	}
	n.idx = idxFree
}

// siftFix restores heap order at slot i after its key changed, sifting
// whichever direction is needed.
func (e *Engine) siftFix(i int) {
	if i > 0 && entLess(e.heap[i], e.heap[(i-1)/4]) {
		e.siftUp(i)
	} else {
		e.siftDown(i)
	}
}

// siftUp moves slot i toward the root. The moving entry is held out as a
// hole so each level costs one compare and one copy, and the common
// rearm-to-earlier-deadline case stops at the first parent check.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entLess(ent, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].n.idx = int32(i)
		i = p
	}
	h[i] = ent
	ent.n.idx = int32(i)
}

// siftDown moves slot i toward the leaves, hole-style like siftUp.
func (e *Engine) siftDown(i int) {
	h := e.heap
	size := len(h)
	ent := h[i]
	for {
		first := 4*i + 1
		if first >= size {
			break
		}
		last := first + 4
		if last > size {
			last = size
		}
		c := first
		for j := first + 1; j < last; j++ {
			if entLess(h[j], h[c]) {
				c = j
			}
		}
		if !entLess(h[c], ent) {
			break
		}
		h[i] = h[c]
		h[i].n.idx = int32(i)
		i = c
	}
	h[i] = ent
	ent.n.idx = int32(i)
}

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
