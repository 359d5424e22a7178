package sched

import (
	"testing"

	"oversub/internal/hw"
	"oversub/internal/sim"
)

// testKernel builds a small machine: one socket, ncpu cores, no SMT.
func testKernel(t *testing.T, ncpu int, feat Features) (*sim.Engine, *Kernel) {
	t.Helper()
	eng := sim.NewEngine(12345)
	k := New(eng, Config{
		Topo:  hw.Topology{Sockets: 1, CoresPerSocket: ncpu, ThreadsPerCore: 1},
		NCPUs: ncpu,
		Costs: DefaultCosts(),
		Feat:  feat,
		Seed:  777,
	})
	return eng, k
}

func mustComplete(t *testing.T, k *Kernel, horizon sim.Time) {
	t.Helper()
	if err := k.RunToCompletion(horizon); err != nil {
		t.Fatal(err)
	}
}

func TestSingleThreadRuns(t *testing.T) {
	eng, k := testKernel(t, 1, Features{})
	var done bool
	th := k.Spawn("worker", func(t *Thread) {
		t.Run(10 * sim.Millisecond)
		done = true
	})
	mustComplete(t, k, 0)
	if !done {
		t.Fatal("thread body did not complete")
	}
	if th.State() != StateExited {
		t.Fatalf("state = %v, want exited", th.State())
	}
	if th.CPUTime < 10*sim.Millisecond {
		t.Errorf("CPUTime = %v, want >= 10ms", th.CPUTime)
	}
	// A lone thread experiences no involuntary context switches.
	if th.InvolCS != 0 {
		t.Errorf("InvolCS = %d, want 0 for a lone thread", th.InvolCS)
	}
	if eng.Now() < sim.Time(10*sim.Millisecond) {
		t.Errorf("clock = %v, want >= 10ms", eng.Now())
	}
}

func TestTwoThreadsTimeShare(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	const work = 30 * sim.Millisecond
	var ths []*Thread
	for i := 0; i < 2; i++ {
		ths = append(ths, k.Spawn("w", func(t *Thread) { t.Run(work) }))
	}
	mustComplete(t, k, 0)
	// Each got its CPU time.
	for _, th := range ths {
		if th.CPUTime < work {
			t.Errorf("%v CPUTime = %v, want >= %v", th, th.CPUTime, work)
		}
	}
	// Slices are ~1.5ms (3ms latency / 2 runnable), so each thread is
	// preempted about 30ms/1.5ms = 20 times.
	if ths[0].InvolCS < 10 || ths[0].InvolCS > 45 {
		t.Errorf("InvolCS = %d, want ~20", ths[0].InvolCS)
	}
	// Total wall time is close to 60ms plus context switch overhead.
	end := k.Now()
	if end < sim.Time(60*sim.Millisecond) {
		t.Errorf("end = %v, want >= 60ms", end)
	}
	if end > sim.Time(62*sim.Millisecond) {
		t.Errorf("end = %v, want ~60ms (CS overhead must stay ~0.1%%)", end)
	}
}

func TestDirectCSCostMatchesPaper(t *testing.T) {
	// Fig 2 setup: threads yield after every MinGranularity of work. The
	// per-switch direct cost should stay ~1.5us: makespan inflation over
	// the single-thread case divided by the number of switches.
	run := func(n int) (sim.Duration, uint64) {
		_, k := testKernel(t, 1, Features{})
		total := 80 * sim.Millisecond
		per := total / sim.Duration(n)
		iter := k.Costs().MinGranularity
		for i := 0; i < n; i++ {
			k.Spawn("w", func(t *Thread) {
				remaining := per
				for remaining > 0 {
					chunk := iter
					if chunk > remaining {
						chunk = remaining
					}
					t.Run(chunk)
					t.Yield()
					remaining -= chunk
				}
			})
		}
		mustComplete(t, k, 0)
		return k.Now().Sub(0), k.Metrics.VolCS + k.Metrics.InvolCS
	}
	t1, _ := run(1)
	t4, cs4 := run(4)
	perCS := float64(t4-t1) / float64(cs4)
	if perCS < 500 || perCS > 4000 {
		t.Errorf("per-context-switch cost = %.0fns, want ~1500ns", perCS)
	}
}

func TestBlockAndWakeVanilla(t *testing.T) {
	_, k := testKernel(t, 2, Features{})
	var waiter *Thread
	woke := false
	waiter = k.Spawn("waiter", func(t *Thread) {
		t.Block()
		woke = true
	})
	k.Spawn("waker", func(t *Thread) {
		t.Run(5 * sim.Millisecond)
		k.WakeVanilla(t, waiter)
		t.Run(1 * sim.Millisecond)
	})
	mustComplete(t, k, 0)
	if !woke {
		t.Fatal("waiter never woke")
	}
	if k.Metrics.Wakeups == 0 {
		t.Error("wakeup not counted")
	}
}

func TestVBlockAndVWake(t *testing.T) {
	_, k := testKernel(t, 1, Features{VB: true})
	var waiter *Thread
	woke := false
	waiter = k.Spawn("waiter", func(t *Thread) {
		t.VBlock()
		woke = true
	})
	k.Spawn("waker", func(t *Thread) {
		t.Run(2 * sim.Millisecond)
		if !waiter.VBlocked() {
			panic("waiter should be virtually blocked")
		}
		k.VWake(t, waiter)
		t.Run(1 * sim.Millisecond)
	})
	mustComplete(t, k, 0)
	if !woke {
		t.Fatal("VB waiter never woke")
	}
	if k.Metrics.VBWakes != 1 {
		t.Errorf("VBWakes = %d, want 1", k.Metrics.VBWakes)
	}
}

func TestVBlockedThreadNeverRunsWhileOthersRunnable(t *testing.T) {
	_, k := testKernel(t, 1, Features{VB: true})
	var blockedRan bool
	var blocked *Thread
	blocked = k.Spawn("blocked", func(t *Thread) {
		t.VBlock()
		blockedRan = true
	})
	k.Spawn("busy", func(t *Thread) {
		t.Run(20 * sim.Millisecond)
		if blockedRan {
			panic("virtually blocked thread ran while a runnable thread existed")
		}
		k.VWake(t, blocked)
	})
	mustComplete(t, k, 0)
	if !blockedRan {
		t.Fatal("blocked thread never resumed after VWake")
	}
}

func TestAllVBlockedCoreWakeLatency(t *testing.T) {
	eng, k := testKernel(t, 2, Features{VB: true})
	var waiters []*Thread
	for i := 0; i < 4; i++ {
		waiters = append(waiters, k.Spawn("w", func(t *Thread) {
			t.VBlock()
			t.Run(sim.Millisecond)
		}))
	}
	// Wake them all from a thread on another CPU after they have blocked.
	k.Spawn("waker", func(t *Thread) {
		t.Run(3 * sim.Millisecond)
		for _, w := range waiters {
			k.VWake(t, w)
		}
	})
	mustComplete(t, k, sim.Time(sim.Second))
	_ = eng
}

func TestSpinUntilCompletesOnKick(t *testing.T) {
	_, k := testKernel(t, 2, Features{})
	flag := k.NewWord(0)
	sig := hw.NewSpinSig(0x1000, 4, false)
	var spinDone sim.Time
	k.Spawn("spinner", func(t *Thread) {
		t.SpinUntil(func() bool { return flag.Load() == 1 }, sig)
		spinDone = k.Now()
	})
	k.Spawn("setter", func(t *Thread) {
		t.Run(5 * sim.Millisecond)
		flag.Store(1)
		t.Run(sim.Millisecond)
	})
	mustComplete(t, k, 0)
	if spinDone < sim.Time(5*sim.Millisecond) {
		t.Errorf("spin completed at %v, before the flag was set", spinDone)
	}
	if spinDone > sim.Time(5100*sim.Microsecond) {
		t.Errorf("spin completed at %v, want shortly after 5ms", spinDone)
	}
}

// TestZeroSpinExitLatency covers a spin-exit lane of delay 0, the engine's
// zero lane: a spin whose condition turns true completes in the same
// instant.
func TestZeroSpinExitLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	costs := DefaultCosts()
	costs.SpinExitLatency = 0
	k := New(eng, Config{
		Topo:  hw.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		NCPUs: 2,
		Costs: costs,
		Seed:  1,
	})
	flag := k.NewWord(0)
	var setAt, doneAt sim.Time
	k.Spawn("spinner", func(t *Thread) {
		t.SpinUntil(func() bool { return flag.Load() == 1 }, hw.NewSpinSig(0x1900, 4, false))
		doneAt = k.Now()
	})
	k.Spawn("setter", func(t *Thread) {
		t.Run(sim.Millisecond)
		setAt = k.Now()
		flag.Store(1)
	})
	mustComplete(t, k, 0)
	if doneAt != setAt {
		t.Fatalf("spin completed at %v, want %v (the store's instant)", doneAt, setAt)
	}
}

func TestSpinBurnsCPU(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	flag := k.NewWord(0)
	sig := hw.NewSpinSig(0x2000, 4, false)
	var spinner *Thread
	spinner = k.Spawn("spinner", func(t *Thread) {
		t.SpinUntil(func() bool { return flag.Load() == 1 }, sig)
	})
	k.Spawn("worker", func(t *Thread) {
		t.Run(10 * sim.Millisecond)
		flag.Store(1)
	})
	mustComplete(t, k, 0)
	// On one core, the spinner's slices delayed the worker; the spinner
	// must have accumulated real spin time.
	if spinner.SpinTime < 5*sim.Millisecond {
		t.Errorf("SpinTime = %v, want several ms of wasted spinning", spinner.SpinTime)
	}
	if end := k.Now(); end < sim.Time(18*sim.Millisecond) {
		t.Errorf("end = %v; spinning should have roughly doubled the makespan", end)
	}
}

func TestPreemptWithSkipFlag(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	flag := k.NewWord(0)
	sig := hw.NewSpinSig(0x3000, 4, false)
	var spinner *Thread
	spinner = k.Spawn("spinner", func(t *Thread) {
		t.SpinUntil(func() bool { return flag.Load() == 1 }, sig)
	})
	k.Spawn("worker", func(t *Thread) {
		t.Run(10 * sim.Millisecond)
		flag.Store(1)
	})
	// Emulate BWD: whenever the spinner is current, kick it off.
	k.Engine().After(100*sim.Microsecond, func() {
		var tick func()
		tick = func() {
			if sp, _ := k.CurrentlySpinning(0); sp {
				k.Preempt(0, true)
			}
			if k.Live() > 0 {
				k.Engine().After(100*sim.Microsecond, tick)
			}
		}
		tick()
	})
	mustComplete(t, k, 0)
	if spinner.BWDHits == 0 {
		t.Error("spinner was never descheduled with the skip flag")
	}
	// With futile spinning suppressed, the makespan approaches the
	// worker's 10ms instead of ~20ms.
	if end := k.Now(); end > sim.Time(13*sim.Millisecond) {
		t.Errorf("end = %v, want close to 10ms with spin suppression", end)
	}
	if spinner.SpinTime > 4*sim.Millisecond {
		t.Errorf("SpinTime = %v, want far below the vanilla ~10ms", spinner.SpinTime)
	}
}

func TestLoadBalancerSpreadsThreads(t *testing.T) {
	_, k := testKernel(t, 4, Features{})
	for i := 0; i < 8; i++ {
		k.Spawn("w", func(t *Thread) { t.Run(20 * sim.Millisecond) })
	}
	mustComplete(t, k, 0)
	// Perfect spread: 8 threads, 4 cores, 20ms each => ~40ms.
	if end := k.Now(); end > sim.Time(50*sim.Millisecond) {
		t.Errorf("end = %v, want ~40ms with balanced load", end)
	}
}

func TestMigrationAccounting(t *testing.T) {
	eng := sim.NewEngine(5)
	k := New(eng, Config{
		Topo:  hw.Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 1},
		NCPUs: 4,
		Costs: DefaultCosts(),
		Seed:  9,
	})
	// Uneven work: spawn alternating long and short threads. Spawn placement
	// interleaves them across CPUs, so when the short threads drain, their
	// CPUs go idle and pull the queued long threads — idle-balance
	// migrations, some of them cross-node on this 2-socket machine.
	for i := 0; i < 12; i++ {
		work := 30 * sim.Millisecond
		if i%2 == 1 {
			work = sim.Millisecond
		}
		k.Spawn("w", func(t *Thread) { t.Run(work) })
	}
	mustComplete(t, k, 0)
	total := k.Metrics.MigrationsInNode + k.Metrics.MigrationsCrossNode
	if total == 0 {
		t.Error("expected idle-balance migrations under uneven load")
	}
	// The pulls must have evened things out: 6*30ms+6*1ms over 4 cores
	// is ~46.5ms of per-core work when balanced.
	if end := k.Now(); end > sim.Time(75*sim.Millisecond) {
		t.Errorf("end = %v, balancing ineffective", end)
	}
}

func TestSetAllowedCPUsShrinkAndGrow(t *testing.T) {
	_, k := testKernel(t, 8, Features{})
	for i := 0; i < 8; i++ {
		k.Spawn("w", func(t *Thread) { t.Run(40 * sim.Millisecond) })
	}
	k.Engine().After(5*sim.Millisecond, func() { k.SetAllowedCPUs(2) })
	k.Engine().After(15*sim.Millisecond, func() { k.SetAllowedCPUs(8) })
	mustComplete(t, k, sim.Time(sim.Second))
	if k.AllowedCPUs() != 8 {
		t.Errorf("AllowedCPUs = %d, want 8", k.AllowedCPUs())
	}
	// Work: 8*40ms = 320ms of CPU. With the shrink phase, makespan is
	// bounded by full-width execution plus the squeezed phase.
	end := k.Now()
	if end < sim.Time(40*sim.Millisecond) || end > sim.Time(200*sim.Millisecond) {
		t.Errorf("end = %v, implausible for elastic run", end)
	}
}

func TestPinnedThreadsStayPut(t *testing.T) {
	_, k := testKernel(t, 4, Features{Pinned: true})
	ths := make([]*Thread, 8)
	for i := range ths {
		ths[i] = k.Spawn("p", func(t *Thread) {
			for j := 0; j < 20; j++ {
				t.Run(500 * sim.Microsecond)
				t.Yield()
			}
		})
	}
	mustComplete(t, k, 0)
	if got := k.Metrics.MigrationsInNode + k.Metrics.MigrationsCrossNode; got != 0 {
		t.Errorf("pinned run migrated %d times, want 0", got)
	}
	for i, th := range ths {
		if th.CPU() != i%4 {
			t.Errorf("thread %d on cpu %d, want %d", i, th.CPU(), i%4)
		}
	}
}

func TestSMTSharingSlowsBothSiblings(t *testing.T) {
	eng := sim.NewEngine(6)
	k := New(eng, Config{
		Topo:  hw.Topology{Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 2},
		NCPUs: 2,
		Costs: DefaultCosts(),
		Seed:  3,
	})
	for i := 0; i < 2; i++ {
		k.Spawn("w", func(t *Thread) { t.Run(10 * sim.Millisecond) })
	}
	mustComplete(t, k, 0)
	// Two hyperthreads of one core: each runs at SMTFactor, so the
	// makespan is ~10ms/0.62 = ~16ms, not 10ms.
	end := k.Now()
	if end < sim.Time(14*sim.Millisecond) {
		t.Errorf("end = %v, SMT contention should stretch 10ms to ~16ms", end)
	}
	if end > sim.Time(19*sim.Millisecond) {
		t.Errorf("end = %v, too slow for 2 hyperthreads", end)
	}
}

func TestKLockMutualExclusion(t *testing.T) {
	_, k := testKernel(t, 4, Features{})
	l := k.NewKLock(99)
	var acquired int
	var inside int
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("locker", func(t *Thread) {
			t.Run(sim.Duration(i+1) * 100 * sim.Microsecond) // stagger arrivals
			l.Lock(t)
			inside++
			if inside != 1 {
				panic("mutual exclusion violated")
			}
			acquired++
			t.Run(2 * sim.Millisecond) // hold while others arrive
			inside--
			l.Unlock(t)
		})
	}
	mustComplete(t, k, 0)
	if acquired != 4 {
		t.Errorf("acquired = %d, want 4", acquired)
	}
	if l.Contended() {
		t.Error("lock still held after completion")
	}
}

func TestUtilizationBounded(t *testing.T) {
	_, k := testKernel(t, 4, Features{})
	for i := 0; i < 6; i++ {
		k.Spawn("w", func(t *Thread) { t.Run(10 * sim.Millisecond) })
	}
	mustComplete(t, k, 0)
	busy := k.TotalBusy()
	wall := k.Now().Sub(0)
	if busy > 4*wall {
		t.Errorf("busy %v exceeds 4 cpus * wall %v", busy, wall)
	}
	if busy < 60*sim.Millisecond {
		t.Errorf("busy %v, want >= total work 60ms", busy)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, Metrics) {
		_, k := testKernel(t, 4, Features{})
		for i := 0; i < 10; i++ {
			k.Spawn("w", func(t *Thread) {
				for j := 0; j < 20; j++ {
					t.Run(300 * sim.Microsecond)
					t.Sleep(100 * sim.Microsecond)
				}
			})
		}
		mustComplete(t, k, 0)
		return k.Now(), k.Metrics
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 || m1 != m2 {
		t.Errorf("identical runs diverged: %v/%+v vs %v/%+v", t1, m1, t2, m2)
	}
}

func TestRunToCompletionDetectsDeadlock(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	k.Spawn("stuck", func(t *Thread) {
		t.Block() // nobody will ever wake it
	})
	err := k.RunToCompletion(sim.Time(100 * sim.Millisecond))
	if err == nil {
		t.Fatal("deadlocked run reported success")
	}
}

func TestWakePreemptionRespectsMinGranularity(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	costs := k.Costs()
	var sleeper *Thread
	var wokeAt sim.Time
	sleeper = k.Spawn("sleeper", func(t *Thread) {
		t.Block()
		wokeAt = k.Now()
		t.Run(100 * sim.Microsecond)
	})
	k.Spawn("hog", func(t *Thread) {
		t.Run(100 * sim.Microsecond)
		k.WakeVanilla(t, sleeper)
		// The wake happens early in the hog's slice; the sleeper has a
		// large vruntime deficit and wants to preempt, but not before the
		// hog has run MinGranularity.
		t.Run(20 * sim.Millisecond)
	})
	mustComplete(t, k, 0)
	if wokeAt == 0 {
		t.Fatal("sleeper never ran")
	}
	if wokeAt < sim.Time(costs.MinGranularity) {
		t.Errorf("sleeper dispatched at %v, before min granularity %v", wokeAt, costs.MinGranularity)
	}
	if wokeAt > sim.Time(5*sim.Millisecond) {
		t.Errorf("sleeper dispatched at %v, preemption seems broken", wokeAt)
	}
}
