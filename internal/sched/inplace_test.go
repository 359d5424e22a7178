package sched

import (
	"testing"

	"oversub/internal/sim"
)

// TestSyncWindowQueuesResumedCompute pins SyncWindow's guard on in-place
// compute. A probe scheduled for the instant the first dispatch's
// context-switch overhead ends fires before the overhead's own completion,
// so its SyncWindow closes the overhead and resumes the new thread's body.
// The body's Run must then take the queued path: the probe reads the window
// after SyncWindow returns, and must see the clock where it fired.
func TestSyncWindowQueuesResumedCompute(t *testing.T) {
	eng, k := testKernel(t, 1, Features{})
	at := sim.Time(0).Add(k.Costs().ContextSwitch)
	var started, probed sim.Time
	eng.At(at, func() {
		k.SyncWindow(0)
		probed = k.Now()
	})
	k.Spawn("w", func(th *Thread) {
		started = th.Kernel().Now()
		th.Run(10 * sim.Microsecond)
	})
	mustComplete(t, k, 0)
	if started != at {
		t.Fatalf("body started at %v, want %v: the probe no longer resumes it", started, at)
	}
	if probed != at {
		t.Fatalf("probe read the window at %v, want %v: compute fired in place under SyncWindow", probed, at)
	}
}

// TestRunInPlaceZeroAlloc pins the in-place compute path at zero
// allocations: a thread looping short Runs alone on a CPU completes nearly
// every one of them in place.
func TestRunInPlaceZeroAlloc(t *testing.T) {
	eng, k := testKernel(t, 1, Features{})
	k.Spawn("loop", func(th *Thread) {
		for {
			th.Run(sim.Microsecond)
		}
	})
	until := eng.Run(sim.Time(sim.Millisecond))
	before := eng.InPlace()
	allocs := testing.AllocsPerRun(20, func() {
		until = eng.Run(until.Add(sim.Millisecond))
	})
	if allocs != 0 {
		t.Fatalf("in-place Run loop: %v allocs per simulated ms, want 0", allocs)
	}
	if n := eng.InPlace() - before; n < 20*900 {
		t.Fatalf("only %d Runs fired in place over 21 ms of 1 µs Runs", n)
	}
	eng.Close()
}
