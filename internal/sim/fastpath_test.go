package sim

// Regression and performance pins for the event-core fast path: the
// pooled free list, the closure-free AtCall/AfterCall path, and rearmable
// timers must stay allocation-free in steady state, and stale handles to
// recycled nodes must stay inert.

import (
	"fmt"
	"strings"
	"testing"
)

func nopFn() {}

var fastpathFires int

func countFire(arg any, a, b uint64) {
	fastpathFires += int(a)
	if p, ok := arg.(*int); ok {
		*p++
	}
	_ = b
}

// TestStepPanicsOnBackwardsClock pins the Step() counterpart of the
// backwards-clock guard Run() has always had: a queue whose head is
// behind the clock means the engine state is corrupt, and single-stepping
// must refuse to run it just like Run does. White-box: the only way to
// reach the state is to corrupt the clock directly, since At/After reject
// past times at the API boundary.
func TestStepPanicsOnBackwardsClock(t *testing.T) {
	e := NewEngine(1)
	e.After(Microsecond, nopFn)
	e.now = Time(5 * Microsecond) // corrupt: clock jumped past the queued event
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Step() on a backwards queue did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "event queue went backwards") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	e.Step()
}

// TestStaleCancelOnRecycledNode pins the generation-counter contract: a
// handle to a fired event whose node has since been recycled for an
// unrelated event must not be able to cancel the new occupant.
func TestStaleCancelOnRecycledNode(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	ev1 := e.After(Microsecond, func() { fired = append(fired, 1) })
	e.Run(0)
	ev2 := e.After(Microsecond, func() { fired = append(fired, 2) })
	if ev1.n != ev2.n {
		t.Fatal("second event did not reuse the pooled node; pin needs reworking")
	}
	ev1.Cancel() // stale: same node, older generation
	if !ev2.Active() {
		t.Fatal("stale Cancel deactivated the recycled node's new event")
	}
	if ev1.Active() {
		t.Fatal("fired event still reports Active through a stale handle")
	}
	e.Run(0)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
}

// TestRearmZeroAlloc pins Timer.Rearm at zero allocations in both steady
// states: rearm-after-fire (the periodic-tick pattern) and
// rearm-while-armed (the slice-extension pattern, an in-heap re-key).
func TestRearmZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	tm := e.Timer(nopFn)
	tm.Rearm(Microsecond)
	e.Run(0) // warm the heap's backing array

	if n := testing.AllocsPerRun(100, func() {
		tm.Rearm(Microsecond)
		e.Run(0)
	}); n != 0 {
		t.Errorf("rearm-after-fire allocates %v per cycle, want 0", n)
	}

	other := e.Timer(nopFn) // keep the heap non-trivial during the re-key
	other.Rearm(50 * Microsecond)
	tm.Rearm(10 * Microsecond)
	if n := testing.AllocsPerRun(100, func() {
		tm.Rearm(9 * Microsecond)
	}); n != 0 {
		t.Errorf("rearm-while-armed allocates %v per call, want 0", n)
	}

	// A lane-bound timer's rearm-after-fire queues on its lane (the
	// periodic BWD window and balance tick).
	lt := e.Lane(3 * Microsecond).Timer(nopFn)
	lt.Rearm(3 * Microsecond)
	e.Run(0) // warm the lane's ring
	if n := testing.AllocsPerRun(100, func() {
		lt.Rearm(3 * Microsecond)
		e.Run(0)
	}); n != 0 {
		t.Errorf("lane rearm-after-fire allocates %v per cycle, want 0", n)
	}
}

// TestFreeListZeroAlloc pins the pooled schedule/cancel and the
// closure-free schedule/fire cycles at zero allocations once the pool and
// queue arrays are warm.
func TestFreeListZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	e.After(Microsecond, nopFn).Cancel() // warm: one pooled node, heap cap >= 1

	if n := testing.AllocsPerRun(100, func() {
		e.After(Microsecond, nopFn).Cancel()
	}); n != 0 {
		t.Errorf("pooled After+Cancel allocates %v per cycle, want 0", n)
	}

	arg := new(int)
	e.AfterCall(0, countFire, arg, 1, 0)
	e.Run(0) // warm the zero lane
	if n := testing.AllocsPerRun(100, func() {
		e.AfterCall(0, countFire, arg, 1, 0)
		e.Run(0)
	}); n != 0 {
		t.Errorf("AfterCall schedule+fire allocates %v per cycle, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e.AfterCall(3*Microsecond, countFire, arg, 1, 0)
		e.Run(0)
	}); n != 0 {
		t.Errorf("heap-path AfterCall schedule+fire allocates %v per cycle, want 0", n)
	}

	lane := e.Lane(30 * Nanosecond)
	lane.AfterCall(countFire, arg, 1, 0)
	e.Run(0) // warm the lane's ring
	if n := testing.AllocsPerRun(100, func() {
		lane.AfterCall(countFire, arg, 1, 0)
		lane.AfterCall(countFire, arg, 1, 0).Cancel()
		e.Run(0)
	}); n != 0 {
		t.Errorf("lane AfterCall schedule+fire and schedule+cancel allocate %v per cycle, want 0", n)
	}
}

// TestLaneRingWrapsAndGrows fills a lane whose ring has wrapped past its
// end until it grows, with a tombstone on each side of the wrap, and
// checks that the live entries still fire in schedule order.
func TestLaneRingWrapsAndGrows(t *testing.T) {
	e := NewEngine(1)
	lane := e.Lane(10)
	var fired []uint64
	log := func(_ any, a, _ uint64) { fired = append(fired, a) }
	var evs []Event
	for i := uint64(0); i < 6; i++ {
		evs = append(evs, lane.AfterCall(log, nil, i, 0))
	}
	for i := 0; i < 4; i++ {
		e.Step() // head moves to slot 4 of the initial 8
	}
	for i := uint64(6); i < 20; i++ {
		evs = append(evs, lane.AfterCall(log, nil, i, 0))
	}
	evs[5].Cancel()  // before the wrap
	evs[12].Cancel() // after it
	e.Run(0)
	var want []uint64
	for i := uint64(0); i < 20; i++ {
		if i != 5 && i != 12 {
			want = append(want, i)
		}
	}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if e.Pending() != 0 || e.lm != nil || lane.n != 0 {
		t.Fatalf("drained engine: Pending %d, cached lane %p, lane holds %d", e.Pending(), e.lm, lane.n)
	}
}

// TestLaneTimerSkipsHeap pins the routing of lane-bound timers: a
// staggered first arm goes to the heap, and every rearm by the lane's
// delay after it queues on the lane, never in the heap, while the firing
// order still merges with heap events by (at, seq).
func TestLaneTimerSkipsHeap(t *testing.T) {
	e := NewEngine(1)
	const period = 100 * Microsecond
	lane := e.Lane(period)
	if e.Lane(period) != lane {
		t.Fatal("Lane(d) made a second lane for the same delay")
	}
	var fired []int
	tms := make([]*Timer, 3)
	for i := range tms {
		i := i
		tms[i] = lane.Timer(func() {
			fired = append(fired, i)
			tms[i].Rearm(period)
		})
		tms[i].Rearm(period + Duration(i)*7*Microsecond)
	}
	if len(e.heap) != 2 || tms[0].n.idx != idxLane {
		t.Fatalf("first arms: %d heap entries, timer 0 idx %d; want the 2 staggered arms in the heap and timer 0 on its lane",
			len(e.heap), tms[0].n.idx)
	}
	// A heap event between the ticks must still fire in time order.
	var heapAt Time
	e.After(250*Microsecond, func() { heapAt = e.Now() })
	for i := 0; i < 3; i++ {
		e.Step() // the staggered first ticks, each rearming onto the lane
	}
	for e.Now() < Time(Millisecond) {
		if !e.Step() {
			t.Fatal("engine drained with periodic timers armed")
		}
		for i, tm := range tms {
			if tm.n.idx != idxLane {
				t.Fatalf("at %v timer %d has idx %d, want it on its lane", e.Now(), i, tm.n.idx)
			}
		}
		if heapAt == 0 && len(e.heap) != 1 || heapAt != 0 && len(e.heap) != 0 {
			t.Fatalf("at %v the heap holds %d entries; lane rearms must not enter it", e.Now(), len(e.heap))
		}
	}
	if heapAt != Time(250*Microsecond) {
		t.Fatalf("heap event fired at %v, want 250us", heapAt)
	}
	if want := []int{0, 1, 2, 0, 1, 2}; len(fired) < 6 || fmt.Sprint(fired[:6]) != fmt.Sprint(want) {
		t.Fatalf("firing order %v, want it to start %v", fired, want)
	}
}

// TestProcSwitchZeroAlloc pins a Switch/Park round trip of a started
// proc at zero allocations: the coroutine switch carries no value and
// boxes nothing.
func TestProcSwitchZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	p := e.NewProc(func(p *Proc) {
		for {
			p.Park()
		}
	})
	p.Switch()
	if n := testing.AllocsPerRun(100, p.Switch); n != 0 {
		t.Errorf("Switch/Park round trip allocates %v per cycle, want 0", n)
	}
	e.Close()
}

// BenchmarkEnginePushPop measures the raw event-queue cycle: schedule one
// event, fire one event, with a standing population keeping the heap at
// working depth.
func BenchmarkEnginePushPop(b *testing.B) {
	e := NewEngine(1)
	const standing = 1024
	for i := 0; i < standing; i++ {
		e.AfterCall(Duration(1+i%997)*Microsecond, countFire, nil, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.AfterCall(Duration(1+i%997)*Microsecond, countFire, nil, 0, 0)
	}
}
