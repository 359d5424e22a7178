package sched_test

import (
	"testing"

	"oversub/internal/bwd"
	"oversub/internal/epoll"
	"oversub/internal/futex"
	"oversub/internal/hw"
	"oversub/internal/locks"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// TestSteadyStateZeroAlloc pins the kernel's event paths at zero
// allocations once a machine is warm. The policy legs run every registered
// policy with VB and BWD on: four threads share two CPUs, so the measured
// window exercises every path a simulation repeats millions of times: the
// engine's heap, zero-delay and fixed-delay lanes, timer rearms, slice
// expiry, Sleep and Yield, a spin that ends by deadline or by BWD
// deschedule, a spin released by a Word store (Kick, spin-exit lane),
// balance steals, a contended futex mutex (WakeVanilla) and a barrier
// whose group wakeups take the virtual-blocking path (VWake). The epoll
// legs feed a consumer from a sim timer, so posts wake it from interrupt
// context (VWake(nil, ...) with VB, WakeIRQ without); the barrier leg
// broadcasts to 31 waiters per phase.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var deschedules uint64
	for _, policy := range sched.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			eng, k := steadyMachine(policy)
			defer eng.Close()
			before, m := pinZeroAlloc(t, eng, k)
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
	for _, vb := range []bool{true, false} {
		name := "epoll/vanilla"
		if vb {
			name = "epoll/vb"
		}
		t.Run(name, func(t *testing.T) {
			eng, k := epollMachine(vb)
			defer eng.Close()
			before, m := pinZeroAlloc(t, eng, k)
			woken := m.Wakeups > before.Wakeups
			if vb {
				woken = m.VBWakes > before.VBWakes
			}
			if m.EpollWaits == before.EpollWaits || !woken {
				t.Fatalf("the measured window lost a path: %+v after %+v", m, before)
			}
		})
	}
	t.Run("barrier32", func(t *testing.T) {
		eng, k := barrierMachine(32)
		defer eng.Close()
		before, m := pinZeroAlloc(t, eng, k)
		if m.FutexWakes-before.FutexWakes < 31 {
			t.Fatalf("the measured window saw no full broadcast: %+v after %+v", m, before)
		}
	})
}

// pinZeroAlloc warms the machine for 50 simulated ms, then fails t unless
// running it further allocates nothing. It returns the kernel's counters
// from before and after the measured window.
func pinZeroAlloc(t *testing.T, eng *sim.Engine, k *sched.Kernel) (before, after sched.Metrics) {
	t.Helper()
	until := eng.Run(sim.Time(50 * sim.Millisecond))
	before = k.Metrics
	// AllocsPerRun truncates the mean, so each run spans 10 ms: a path
	// taken only a few times per ms still shows an allocation.
	allocs := testing.AllocsPerRun(5, func() {
		until = eng.Run(until.Add(10 * sim.Millisecond))
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per 10 simulated ms in steady state, want 0", allocs)
	}
	return before, k.Metrics
}

// newMachine builds a 2-CPU kernel for the pin.
func newMachine(policy string, feat sched.Features) (*sim.Engine, *sched.Kernel) {
	eng := sim.NewEngine(12345)
	return eng, sched.New(eng, sched.Config{
		Topo:   hw.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		NCPUs:  2,
		Costs:  sched.DefaultCosts(),
		Feat:   feat,
		Seed:   777,
		Policy: policy,
	})
}

// epollMachine builds the epoll leg: a timer posts every 200 µs to a
// consumer that handles each event in 50 µs and blocks again, beside a
// thread that computes and sleeps.
func epollMachine(vb bool) (*sim.Engine, *sched.Kernel) {
	eng, k := newMachine("", sched.Features{VB: vb})
	poll := epoll.New(k)
	var post *sim.Timer
	post = eng.Timer(func() {
		poll.Post(nil)
		post.Rearm(200 * sim.Microsecond)
	})
	post.Rearm(200 * sim.Microsecond)
	k.Spawn("consumer", func(th *sched.Thread) {
		for {
			poll.Wait(th)
			th.Run(50 * sim.Microsecond)
		}
	})
	k.Spawn("compute", func(th *sched.Thread) {
		for {
			th.Run(1 * sim.Millisecond)
			th.Sleep(100 * sim.Microsecond)
		}
	})
	return eng, k
}

// barrierMachine builds the wide-broadcast leg: n threads on two CPUs
// meet at one barrier after every 20 µs of work, so each phase's last
// arrival wakes n-1 waiters.
func barrierMachine(n int) (*sim.Engine, *sched.Kernel) {
	eng, k := newMachine("", sched.Features{})
	bar := locks.NewBarrier(futex.NewTable(k, 16), n)
	for i := 0; i < n; i++ {
		k.Spawn("party", func(th *sched.Thread) {
			for {
				th.Run(20 * sim.Microsecond)
				bar.Await(th)
			}
		})
	}
	return eng, k
}

// steadyMachine builds the pin's workload: two threads hand a futex mutex
// back and forth, all four meet at a barrier, and a spinner waits on a
// Word another thread sets after the barrier; every thread also computes
// past its slice, sleeps, yields or spins to a deadline.
func steadyMachine(policy string) (*sim.Engine, *sched.Kernel) {
	eng, k := newMachine(policy, sched.Features{VB: true})
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
