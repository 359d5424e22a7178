package sim

import "fmt"

// maxTime and maxSeq key the empty-lanes sentinel: it sorts after every
// event.
const (
	maxTime = Time(1<<63 - 1)
	maxSeq  = ^uint64(0)
)

// Lane is a FIFO of events that all share one constant delay d >= 0. Every
// entry is keyed (now+d, seq) when it is queued; the clock never goes
// backwards and seq only grows, so each append is already in (at, seq)
// order and the lane's front is its minimum. Push and pop are O(1), and
// the engine merges the lane fronts with the heap top, so moving a call
// site onto a lane never changes the firing order. A cancelled entry, or
// the stale entry a rearm leaves behind, stays queued as a tombstone that
// the pop path skips: the node no longer carries the entry's seq, or no
// longer sits on a lane. Every event scheduled for the current instant
// goes to the engine's d = 0 lane.
//
// Besides the zero lane, lanes suit only events whose delay is a
// configuration constant and that almost always fire (periodic ticks,
// fixed latencies): a path that cancels or rearms most of what it queues
// fills its lane with tombstones, where the heap would remove them.
type Lane struct {
	eng *Engine
	d   Duration
	// buf is a power-of-two ring holding n entries from head on, so a lane
	// at its working depth queues and pops without allocating.
	buf  []heapEnt
	head int
	n    int
}

// Lane returns the engine's lane for delay d, creating it on first use.
// Callers look their lane up once and keep the handle. Negative d panics.
func (e *Engine) Lane(d Duration) *Lane {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	for _, l := range e.lanes {
		if l.d == d {
			return l
		}
	}
	l := &Lane{eng: e, d: d, buf: make([]heapEnt, 8)}
	e.lanes = append(e.lanes, l)
	return l
}

// AfterCall schedules fn(arg, a, b) to run the lane's delay from now: the
// lane-queued counterpart of Engine.AfterCall, firing in the same order.
func (l *Lane) AfterCall(fn func(arg any, a, b uint64), arg any, a, b uint64) Event {
	e := l.eng
	n := e.alloc()
	n.fnArg, n.arg, n.a, n.b = fn, arg, a, b
	e.seq++
	l.push(n, e.seq)
	e.live++
	return Event{n: n, gen: n.gen}
}

// Timer returns a new, unarmed timer that runs fn each time it fires.
// Rearming it by exactly the lane's delay queues it on the lane; any other
// delay (a staggered first arm, say) is queued as for Engine.Timer.
func (l *Lane) Timer(fn func()) *Timer {
	tm := l.eng.Timer(fn)
	tm.lane = l
	return tm
}

// push queues n at the lane's back with key (now+d, seq).
func (l *Lane) push(n *node, seq uint64) {
	e := l.eng
	n.at, n.seq, n.idx = e.now.Add(l.d), seq, idxLane
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = heapEnt{at: n.at, seq: n.seq, n: n}
	l.n++
	// Only a push onto an empty lane changes its front.
	if l.n == 1 && (n.at < e.lmAt || (n.at == e.lmAt && n.seq < e.lmSeq)) {
		e.lm, e.lmAt, e.lmSeq = l, n.at, n.seq
	}
}

// grow doubles the full ring. Appending the ring to itself keeps each
// entry's place modulo the new size: the wrapped prefix reappears right
// after the old end, where the ring now continues. The stale copies left
// outside the live window are cleared.
func (l *Lane) grow() {
	size := len(l.buf)
	l.buf = append(l.buf, l.buf...)
	clear(l.buf[:l.head])
	clear(l.buf[size+l.head:])
}

// drop removes the lane's front entry and recomputes the engine's cached
// lane minimum.
func (l *Lane) drop() {
	l.buf[l.head] = heapEnt{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	e := l.eng
	e.lm, e.lmAt, e.lmSeq = nil, maxTime, maxSeq
	for _, o := range e.lanes {
		if o.n == 0 {
			continue
		}
		if f := &o.buf[o.head]; f.at < e.lmAt || (f.at == e.lmAt && f.seq < e.lmSeq) {
			e.lm, e.lmAt, e.lmSeq = o, f.at, f.seq
		}
	}
}

// laneBefore reports whether the earliest live lane entry sorts before
// (at, seq). When no lane entry does, it costs one inlined compare against
// the cached minimum.
func (e *Engine) laneBefore(at Time, seq uint64) bool {
	return (e.lmAt < at || (e.lmAt == at && e.lmSeq < seq)) && e.liveLaneBefore(at, seq)
}

// liveLaneBefore is laneBefore's slow path, taken when the cached minimum
// sorts before (at, seq): it drops the tombstones it meets at lane fronts
// until the minimum is live or no longer sorts before the key.
func (e *Engine) liveLaneBefore(at Time, seq uint64) bool {
	for e.lmAt < at || (e.lmAt == at && e.lmSeq < seq) {
		l := e.lm
		if ent := &l.buf[l.head]; ent.n.idx == idxLane && ent.n.seq == ent.seq {
			return true
		}
		l.drop()
	}
	return false
}

// lanePop removes and returns the earliest lane entry, which laneBefore
// has just found live.
func (e *Engine) lanePop() *node {
	l := e.lm
	n := l.buf[l.head].n
	l.drop()
	n.idx = idxFree
	e.live--
	return n
}
