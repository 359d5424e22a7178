package sched_test

import (
	"testing"

	"oversub/internal/bwd"
	"oversub/internal/futex"
	"oversub/internal/hw"
	"oversub/internal/locks"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// TestSteadyStateZeroAlloc pins the kernel's event paths at zero
// allocations once a machine is warm, for every registered policy with
// BWD on. Four threads share two CPUs, so the
// measured window exercises every path a simulation repeats millions of
// times: the engine's heap, zero-delay and fixed-delay lanes, timer
// rearms, slice expiry, Sleep and Yield, a spin that ends by deadline or
// by BWD deschedule, a spin released by a Word store (Kick, spin-exit
// lane), balance steals, a contended futex mutex (WakeVanilla) and a
// barrier whose group wakeups take the virtual-blocking path (VWake).
func TestSteadyStateZeroAlloc(t *testing.T) {
	var deschedules uint64
	for _, policy := range sched.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			eng, k := steadyMachine(policy)
			defer eng.Close()
			until := eng.Run(sim.Time(50 * sim.Millisecond))
			before := k.Metrics
			// AllocsPerRun truncates the mean, so each run spans 10 ms: a
			// path taken only a few times per ms still shows an allocation.
			allocs := testing.AllocsPerRun(5, func() {
				until = eng.Run(until.Add(10 * sim.Millisecond))
			})
			if allocs != 0 {
				t.Fatalf("%v allocs per 10 simulated ms in steady state, want 0", allocs)
			}
			m := k.Metrics
			if m.Wakeups == before.Wakeups || m.VBWakes == before.VBWakes || m.MigrationsInNode == before.MigrationsInNode {
				t.Fatalf("the measured window lost a path: %+v after %+v", m, before)
			}
			deschedules += m.BWDDeschedules - before.BWDDeschedules
		})
	}
	// Shinjuku's 5 µs quantum switches too often for any window to see a
	// clean spin; the other policies must still deschedule the spinner.
	if deschedules == 0 {
		t.Fatal("no BWD deschedule in any measured window")
	}
}

// steadyMachine builds the pin's workload: two threads hand a futex mutex
// back and forth, all four meet at a barrier, and a spinner waits on a
// Word another thread sets after the barrier; every thread also computes
// past its slice, sleeps, yields or spins to a deadline.
func steadyMachine(policy string) (*sim.Engine, *sched.Kernel) {
	eng := sim.NewEngine(12345)
	k := sched.New(eng, sched.Config{
		Topo:   hw.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		NCPUs:  2,
		Costs:  sched.DefaultCosts(),
		Feat:   sched.Features{VB: true},
		Seed:   777,
		Policy: policy,
	})
	bwd.New(k, bwd.Config{Mode: bwd.ModeBWD}).Start()
	tbl := futex.NewTable(k, 16)
	mu := locks.NewMutex(tbl)
	bar := locks.NewBarrier(tbl, 4)
	flag := k.NewWord(0)
	raised := func() bool { return flag.Load() != 0 }
	never := func() bool { return false }
	sig := hw.NewSpinSig(0x7000, 5, false)

	for i := 0; i < 2; i++ {
		k.Spawn("handoff", func(th *sched.Thread) {
			for {
				mu.Lock(th)
				th.Run(40 * sim.Microsecond)
				mu.Unlock(th)
				bar.Await(th)
				th.Run(900 * sim.Microsecond)
				th.Sleep(30 * sim.Microsecond)
			}
		})
	}
	k.Spawn("compute", func(th *sched.Thread) {
		for {
			th.Run(2 * sim.Millisecond)
			bar.Await(th)
			th.Run(100 * sim.Microsecond)
			flag.Store(1)
			th.Yield()
		}
	})
	k.Spawn("spinner", func(th *sched.Thread) {
		for {
			bar.Await(th)
			th.SpinUntil(raised, sig)
			flag.Store(0)
			th.SpinUntilDeadline(never, sig, th.Kernel().Now().Add(300*sim.Microsecond))
			th.Sleep(50 * sim.Microsecond)
		}
	})
	return eng, k
}
