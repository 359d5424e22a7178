package sim

import "fmt"

// Timer is a rearmable scheduled callback bound to one engine. It owns a
// dedicated event node and a single callback for its whole life, so
// periodic paths (preemption slice, balance tick, BWD window, metrics
// sampler) re-arm without allocating: Rearm reuses the same node and the
// same function value every cycle.
//
// A Timer holds at most one pending firing: Rearm while armed moves the
// pending firing instead of adding a second one. Like every engine event,
// each (re)arm consumes exactly one sequence number, so a Timer-driven
// periodic path fires in precisely the order the equivalent chain of After
// calls would — switching a call site to a Timer never changes a run's
// event order.
type Timer struct {
	eng *Engine
	n   *node
	// lane, if set, queues every rearm by exactly its delay (Lane.Timer).
	lane *Lane
}

// Timer returns a new, unarmed timer that runs fn each time it fires.
func (e *Engine) Timer(fn func()) *Timer {
	return &Timer{eng: e, n: &node{eng: e, idx: idxFree, gen: 1, owned: true, fn: fn}}
}

// Rearm schedules — or, if armed, reschedules — the timer to fire d from
// now. Negative d panics.
func (tm *Timer) Rearm(d Duration) {
	if l := tm.lane; l != nil && d == l.d {
		tm.rearmLane(l)
		return
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	tm.rearmAt(tm.eng.now.Add(d))
}

// rearmAt schedules — or, if armed, reschedules — the timer to fire at
// time t. Scheduling in the past panics.
func (tm *Timer) rearmAt(t Time) {
	e, n := tm.eng, tm.n
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, e.now))
	}
	e.seq++
	if n.idx >= 0 {
		// Armed and in the heap: re-key the slot in place and sift. The
		// common rearm-to-an-earlier-deadline case is a single sift-up that
		// short-circuits at the first parent compare.
		n.at, n.seq = t, e.seq
		i := int(n.idx)
		e.heap[i].at, e.heap[i].seq = t, e.seq
		e.siftFix(i)
		return
	}
	armed := n.idx != idxFree // the seq bump tombstones the old lane entry
	if t == e.now {
		e.zero.push(n, e.seq)
	} else {
		n.at, n.seq = t, e.seq
		e.heapPush(n)
	}
	if !armed {
		e.live++
	}
}

// rearmLane schedules — or, if armed, reschedules — the timer on its lane.
func (tm *Timer) rearmLane(l *Lane) {
	e, n := tm.eng, tm.n
	armed := n.idx != idxFree
	// A heap slot is removed; the seq bump tombstones a lane entry.
	if n.idx >= 0 {
		e.heapRemove(int(n.idx))
	}
	e.seq++
	l.push(n, e.seq)
	if !armed {
		e.live++
	}
}

// Stop disarms the timer. Stopping an unarmed timer is a no-op. The timer
// stays usable: a later Rearm arms it again.
func (tm *Timer) Stop() {
	n := tm.n
	if n.idx == idxFree {
		return
	}
	if n.idx >= 0 {
		n.eng.heapRemove(int(n.idx))
	} else {
		n.idx = idxFree
	}
	n.eng.live--
}

// Active reports whether the timer is armed.
func (tm *Timer) Active() bool { return tm.n.idx != idxFree }
