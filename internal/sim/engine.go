package sim

import "fmt"

// Sentinel values for node.idx locating a node within the engine's queue.
const (
	// idxFree marks a node that is not queued: fired, cancelled, pooled, or
	// a Timer at rest.
	idxFree int32 = -1
	// idxFIFO marks a node queued on the zero-delay ring.
	idxFIFO int32 = -2
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

// heapEnt is one binary-heap slot. The ordering key (at, seq) is stored
// inline so sift comparisons never chase the node pointer.
type heapEnt struct {
	at  Time
	seq uint64
	n   *node
}

// fifoEnt is one zero-delay ring slot. seq doubles as the validity check: a
// node that was cancelled, fired, or rearmed no longer carries this seq (or
// no longer sits on the ring), turning the stale entry into a tombstone that
// the pop path skips.
type fifoEnt struct {
	n   *node
	seq uint64
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
//
//simlint:hotpath
func (ev Event) Cancel() {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.idx == idxFree {
		return
	}
	e := n.eng
	if n.idx >= 0 {
		e.heapRemove(int(n.idx))
	} else {
		n.idx = idxFree // the ring entry becomes a tombstone
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
	// fifo is the zero-delay fast path: events scheduled for the current
	// instant (at == now) land here in seq order, skipping the heap
	// entirely. Because seq grows monotonically and the clock only advances
	// by firing the globally earliest event, valid ring entries are always
	// consumed before the clock moves — the pop path merges ring and heap
	// by (at, seq) to keep the total order exact.
	fifo     []fifoEnt
	fifoHead int
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
}

// NewEngine returns an engine with the clock at zero and the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Executed returns the number of events the engine has fired since
// construction. It is a pure function of the run (benchmark/ uses it as
// the simulator's host-ns-per-event denominator), never a simulation input.
func (e *Engine) Executed() uint64 { return e.executed }

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
// (heap, or the zero-delay ring when t == now).
//
//simlint:hotpath
func (e *Engine) enqueue(n *node, t Time) Event {
	e.seq++
	n.at, n.seq = t, e.seq
	if t == e.now {
		n.idx = idxFIFO
		e.fifo = append(e.fifo, fifoEnt{n: n, seq: n.seq})
	} else {
		e.heapPush(n)
	}
	e.live++
	return Event{n: n, gen: n.gen}
}

// At schedules fn to run at time t. Scheduling in the past panics: the
// simulation would lose causality.
//
//simlint:hotpath
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, e.now))
	}
	n := e.alloc()
	n.fn = fn
	return e.enqueue(n, t)
}

// After schedules fn to run d from now. Negative d panics.
//
//simlint:hotpath
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
//
//simlint:hotpath
func (e *Engine) AtCall(t Time, fn func(arg any, a, b uint64), arg any, a, b uint64) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, e.now))
	}
	n := e.alloc()
	n.fnArg, n.arg, n.a, n.b = fn, arg, a, b
	return e.enqueue(n, t)
}

// AfterCall schedules fn(arg, a, b) to run d from now. Negative d panics.
//
//simlint:hotpath
func (e *Engine) AfterCall(d Duration, fn func(arg any, a, b uint64), arg any, a, b uint64) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.AtCall(e.now.Add(d), fn, arg, a, b)
}

// Stop halts Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of live events in the queue. O(1): cancels
// remove eagerly, so the counter never includes dead entries.
func (e *Engine) Pending() int { return e.live }

// Run executes events until the queue is empty, Stop is called, or the clock
// would pass until (until <= 0 means no limit). It returns the time of the
// last executed event (or the until horizon if it was reached).
//
//simlint:hotpath
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for !e.stopped {
		n := e.pop()
		if n == nil {
			break
		}
		if until > 0 && n.at > until {
			// Put it back; the horizon was reached first. The node keeps
			// its (at, seq) key, so order is preserved across Run calls.
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

// Step executes exactly one event, if any, and reports whether it did.
//
//simlint:hotpath
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
//
//simlint:hotpath
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

// fifoFront returns the earliest valid node on the zero-delay ring without
// consuming it, dropping tombstones. When the ring drains it is reset so
// its backing array is reused.
//
//simlint:hotpath
func (e *Engine) fifoFront() *node {
	for e.fifoHead < len(e.fifo) {
		ent := e.fifo[e.fifoHead]
		if ent.n.idx == idxFIFO && ent.n.seq == ent.seq {
			return ent.n
		}
		e.fifo[e.fifoHead] = fifoEnt{}
		e.fifoHead++
	}
	e.fifo = e.fifo[:0]
	e.fifoHead = 0
	return nil
}

// pop removes and returns the globally earliest live event by (at, seq),
// merging the zero-delay ring with the heap; nil if the queue is empty.
//
//simlint:hotpath
func (e *Engine) pop() *node {
	f := e.fifoFront()
	if len(e.heap) > 0 {
		top := e.heap[0]
		if f == nil || top.at < f.at || (top.at == f.at && top.seq < f.seq) {
			e.heapRemove(0)
			e.live--
			return top.n
		}
	}
	if f == nil {
		return nil
	}
	e.fifo[e.fifoHead] = fifoEnt{}
	e.fifoHead++
	f.idx = idxFree
	e.live--
	return f
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
