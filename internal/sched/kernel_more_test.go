package sched

import (
	"strings"
	"testing"

	"oversub/internal/hw"
	"oversub/internal/mem"
	"oversub/internal/sim"
)

func TestFootprintWarmupCharged(t *testing.T) {
	// Two threads with a memory footprint time-sharing one core pay a
	// refill penalty at every switch; the same work without a footprint
	// does not.
	run := func(fp mem.Footprint) sim.Time {
		_, k := testKernel(t, 1, Features{})
		for i := 0; i < 2; i++ {
			k.Spawn("w", func(th *Thread) {
				th.Footprint = fp
				th.Run(20 * sim.Millisecond)
			})
		}
		mustComplete(t, k, 0)
		return k.Now()
	}
	plain := run(mem.Footprint{})
	warm := run(mem.Footprint{Pattern: mem.RndRead, Bytes: 128 << 10})
	if warm <= plain {
		t.Errorf("footprint run (%v) not slower than plain (%v)", warm, plain)
	}
	// The penalty is bounded: ~27 switches * ~5us.
	if warm > plain+sim.Time(2*sim.Millisecond) {
		t.Errorf("footprint run %v implausibly slow vs %v", warm, plain)
	}
}

func TestVBIdleEscapeToIdleCore(t *testing.T) {
	// A VB-woken thread whose home core is busy moves to a genuinely idle
	// core instead of queueing.
	_, k := testKernel(t, 2, Features{VB: true})
	var waiter *Thread
	var resumedOn int
	waiter = k.Spawn("waiter", func(th *Thread) {
		th.VBlock()
		resumedOn = th.CPU()
		th.Run(500 * sim.Microsecond)
	})
	// A hog keeping the waiter's home core busy.
	k.Spawn("hog", func(th *Thread) {
		th.Run(20 * sim.Millisecond)
	})
	k.Spawn("waker", func(th *Thread) {
		th.Run(5 * sim.Millisecond)
		k.VWake(th, waiter)
		th.Run(sim.Millisecond)
	})
	mustComplete(t, k, 0)
	_ = resumedOn // placement depends on spawn layout; liveness is the point
	if waiter.State() != StateExited {
		t.Error("waiter did not finish")
	}
}

func TestEvacuationMovesVBlockedThreads(t *testing.T) {
	_, k := testKernel(t, 4, Features{VB: true})
	var blocked []*Thread
	for i := 0; i < 4; i++ {
		blocked = append(blocked, k.Spawn("b", func(th *Thread) {
			th.VBlock()
			th.Run(sim.Millisecond)
		}))
	}
	k.Spawn("driver", func(th *Thread) {
		th.Run(2 * sim.Millisecond)
		k.SetAllowedCPUs(1) // evacuate cpus 1-3, including vblocked threads
		th.Run(sim.Millisecond)
		for _, b := range blocked {
			k.VWake(th, b)
		}
	})
	mustComplete(t, k, sim.Time(sim.Second))
	for _, b := range blocked {
		if b.State() != StateExited {
			t.Fatalf("%v stuck in %v after evacuation", b, b.State())
		}
		if b.CPU() != 0 {
			t.Errorf("%v on cpu %d, want 0 after shrink", b, b.CPU())
		}
	}
}

func TestSMTWithVB(t *testing.T) {
	eng := sim.NewEngine(3)
	k := New(eng, Config{
		Topo:  hw.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 2},
		NCPUs: 4,
		Costs: DefaultCosts(),
		Feat:  Features{VB: true},
		Seed:  11,
	})
	done := 0
	var blocked *Thread
	blocked = k.Spawn("b", func(th *Thread) {
		th.VBlock()
		done++
	})
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(th *Thread) {
			th.Run(3 * sim.Millisecond)
			done++
		})
	}
	k.Spawn("waker", func(th *Thread) {
		th.Run(5 * sim.Millisecond)
		k.VWake(th, blocked)
		done++
	})
	mustComplete(t, k, sim.Time(sim.Second))
	if done != 5 {
		t.Errorf("done = %d, want 5", done)
	}
}

func TestDebugStateFormat(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	th := k.Spawn("x", func(th *Thread) { th.Run(sim.Millisecond) })
	s := th.DebugState()
	if !strings.Contains(s, "new") && !strings.Contains(s, "runnable") {
		t.Errorf("DebugState = %q, want a state label", s)
	}
	mustComplete(t, k, 0)
	if got := th.DebugState(); !strings.Contains(got, "exited") {
		t.Errorf("DebugState after exit = %q", got)
	}
}

func TestThreadStringAndLifetime(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	th := k.Spawn("worker", func(th *Thread) { th.Run(2 * sim.Millisecond) })
	if got := th.String(); !strings.Contains(got, "worker") {
		t.Errorf("String = %q", got)
	}
	mustComplete(t, k, 0)
	if lt := th.Lifetime(); lt < 2*sim.Millisecond {
		t.Errorf("Lifetime = %v, want >= 2ms", lt)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateNew: "new", StateRunnable: "runnable", StateRunning: "running",
		StateSleeping: "sleeping", StateExited: "exited", State(99): "State(99)",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestSleepAndTimerWake(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	var wokeAt sim.Time
	k.Spawn("s", func(th *Thread) {
		th.Sleep(7 * sim.Millisecond)
		wokeAt = k.Now()
	})
	mustComplete(t, k, 0)
	if wokeAt < sim.Time(7*sim.Millisecond) || wokeAt > sim.Time(8*sim.Millisecond) {
		t.Errorf("woke at %v, want ~7ms", wokeAt)
	}
}

func TestYieldAlternation(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("y", func(th *Thread) {
			for j := 0; j < 5; j++ {
				order = append(order, i)
				th.Run(10 * sim.Microsecond)
				th.Yield()
			}
		})
	}
	mustComplete(t, k, 0)
	// Yield with equal vruntimes must alternate, not starve.
	last, runs := -1, 0
	maxStreak := 0
	for _, v := range order {
		if v == last {
			runs++
		} else {
			runs = 1
			last = v
		}
		if runs > maxStreak {
			maxStreak = runs
		}
	}
	if maxStreak > 3 {
		t.Errorf("yield starved a peer: order %v", order)
	}
}

func TestKickWithNoSpinners(t *testing.T) {
	_, k := testKernel(t, 2, Features{})
	w := k.NewWord(0)
	k.Spawn("x", func(th *Thread) {
		w.Store(1) // Kick with nobody spinning must be harmless
		th.Run(sim.Millisecond)
	})
	mustComplete(t, k, 0)
}

func TestWordOps(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	w := k.NewWord(10)
	if w.Add(5) != 15 || w.Sub(3) != 12 {
		t.Error("Add/Sub wrong")
	}
	if w.Swap(99) != 12 || w.Load() != 99 {
		t.Error("Swap wrong")
	}
	if w.CAS(1, 2) || !w.CAS(99, 1) || w.Load() != 1 {
		t.Error("CAS wrong")
	}
}

func TestSpinUntilDeadlineTimesOut(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	sig := hw.NewSpinSig(0x7000, 4, false)
	var ok bool
	var elapsed sim.Duration
	k.Spawn("s", func(th *Thread) {
		start := k.Now()
		ok = th.SpinUntilDeadline(func() bool { return false }, sig, k.Now().Add(2*sim.Millisecond))
		elapsed = k.Now().Sub(start)
	})
	mustComplete(t, k, 0)
	if ok {
		t.Error("deadline spin on false condition reported success")
	}
	if elapsed < 2*sim.Millisecond || elapsed > 2200*sim.Microsecond {
		t.Errorf("spun for %v, want ~2ms", elapsed)
	}
}

func TestSpinUntilDeadlineEarlySuccess(t *testing.T) {
	_, k := testKernel(t, 2, Features{})
	w := k.NewWord(0)
	sig := hw.NewSpinSig(0x7100, 4, false)
	var ok bool
	k.Spawn("s", func(th *Thread) {
		ok = th.SpinUntilDeadline(func() bool { return w.Load() == 1 }, sig, k.Now().Add(50*sim.Millisecond))
	})
	k.Spawn("setter", func(th *Thread) {
		th.Run(sim.Millisecond)
		w.Store(1)
	})
	mustComplete(t, k, 0)
	if !ok {
		t.Error("spin did not observe the flag before the deadline")
	}
}

func TestRunKernelNotPreempted(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	var criticalDone sim.Time
	k.Spawn("kern", func(th *Thread) {
		th.RunKernel(5 * sim.Millisecond) // far beyond a normal slice
		criticalDone = k.Now()
	})
	k.Spawn("other", func(th *Thread) {
		th.Run(sim.Millisecond)
	})
	mustComplete(t, k, 0)
	// The kernel section must have run to completion in one go: no other
	// thread can have interleaved, so it finishes before 5ms + epsilon.
	if criticalDone > sim.Time(5200*sim.Microsecond) {
		t.Errorf("kernel critical section finished at %v; preempted?", criticalDone)
	}
}

func TestContendedKLockStats(t *testing.T) {
	_, k := testKernel(t, 2, Features{})
	l := k.NewKLock(1)
	k.Spawn("a", func(th *Thread) {
		l.Lock(th)
		if !l.Contended() {
			panic("lock should read held")
		}
		th.Run(2 * sim.Millisecond)
		l.Unlock(th)
	})
	k.Spawn("b", func(th *Thread) {
		th.Run(100 * sim.Microsecond)
		l.Lock(th)
		l.Unlock(th)
	})
	mustComplete(t, k, 0)
	if l.Contended() {
		t.Error("lock still held at end")
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	_, k := testKernel(t, 2, Features{})
	l := k.NewKLock(2)
	holder := make(chan *Thread, 1)
	k.Spawn("a", func(th *Thread) {
		l.Lock(th)
		holder <- th
		th.Run(2 * sim.Millisecond)
		l.Unlock(th)
	})
	k.Spawn("b", func(th *Thread) {
		th.Run(500 * sim.Microsecond)
		defer func() {
			if recover() == nil {
				panic("Unlock by non-holder did not panic")
			}
		}()
		l.Unlock(th)
	})
	defer func() { recover() }() // the proc panic propagates to Run
	mustComplete(t, k, 0)
}

func TestWakeIRQ(t *testing.T) {
	_, k := testKernel(t, 2, Features{})
	var woke bool
	waiter := k.Spawn("w", func(th *Thread) {
		th.Block()
		woke = true
	})
	k.Engine().After(3*sim.Millisecond, func() { k.WakeIRQ(waiter) })
	mustComplete(t, k, 0)
	if !woke {
		t.Error("IRQ wake failed")
	}
}

func TestSyncWindowFlushesOpenSegment(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	k.Spawn("w", func(th *Thread) { th.Run(10 * sim.Millisecond) })
	var inst float64
	k.Engine().After(5*sim.Millisecond, func() {
		k.SyncWindow(0)
		inst = k.Core(0).PMC.Instructions
	})
	mustComplete(t, k, 0)
	if inst == 0 {
		t.Error("SyncWindow did not materialize the open segment's counters")
	}
}

func TestCostsArePositive(t *testing.T) {
	c := DefaultCosts()
	for name, d := range map[string]sim.Duration{
		"ContextSwitch": c.ContextSwitch, "SchedLatency": c.SchedLatency,
		"MinGranularity": c.MinGranularity, "WakeupGranularity": c.WakeupGranularity,
		"VBWakeGranularity": c.VBWakeGranularity, "SleeperBonus": c.SleeperBonus,
		"SyscallEntry": c.SyscallEntry, "BucketLockHold": c.BucketLockHold,
		"WakeQMove": c.WakeQMove, "SelectCoreBase": c.SelectCoreBase,
		"RQLockHold": c.RQLockHold, "Enqueue": c.Enqueue, "PreemptIPI": c.PreemptIPI,
		"SleepDequeue": c.SleepDequeue, "VBBlock": c.VBBlock, "VBWake": c.VBWake,
		"FlagCheck": c.FlagCheck, "SpinExitLatency": c.SpinExitLatency,
		"MigrationInNode": c.MigrationInNode, "MigrationCrossNode": c.MigrationCrossNode,
		"BalanceInterval": c.BalanceInterval,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want positive", name, d)
		}
	}
	if c.SMTFactor <= 0 || c.SMTFactor > 1 {
		t.Errorf("SMTFactor = %v", c.SMTFactor)
	}
	if c.VBWake >= c.SelectCoreBase+c.RQLockHold+c.Enqueue {
		t.Error("VB wake must be cheaper than the vanilla wake path")
	}
}

func TestNiceLevelsShareCPUByWeight(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	// nice 0 (weight 1024) vs nice 5 (weight 335): ~3:1 CPU share.
	fast := k.Spawn("fast", func(th *Thread) { th.Run(60 * sim.Millisecond) })
	slow := k.Spawn("slow", func(th *Thread) { th.Run(60 * sim.Millisecond) })
	slow.SetNice(5)
	// Sample shares while both still run (before either finishes).
	var fastAt, slowAt sim.Duration
	k.Engine().At(sim.Time(40*sim.Millisecond), func() {
		k.SyncWindow(0)
		fastAt, slowAt = fast.CPUTime, slow.CPUTime
	})
	mustComplete(t, k, 0)
	ratio := float64(fastAt) / float64(slowAt)
	if ratio < 2.2 || ratio > 4.2 {
		t.Errorf("CPU share ratio = %.2f (fast %v, slow %v), want ~3.0", ratio, fastAt, slowAt)
	}
}

func TestNiceClamped(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	th := k.Spawn("x", func(th *Thread) { th.Run(sim.Millisecond) })
	th.SetNice(-99)
	if th.Nice() != -20 {
		t.Errorf("Nice = %d, want -20", th.Nice())
	}
	th.SetNice(99)
	if th.Nice() != 19 {
		t.Errorf("Nice = %d, want 19", th.Nice())
	}
	mustComplete(t, k, 0)
}

func TestAccessorsAndTightLoop(t *testing.T) {
	_, k := testKernel(t, 2, Features{VB: true})
	if k.Features() != (Features{VB: true}) {
		t.Error("Features accessor wrong")
	}
	if k.MemModel() == nil || k.Rand() == nil {
		t.Error("nil accessor")
	}
	if k.Topology().NumCPUs() != 2 {
		t.Error("Topology accessor wrong")
	}
	var th *Thread
	th = k.Spawn("tight", func(th *Thread) {
		if th.Kernel() != k {
			panic("Kernel accessor wrong")
		}
		th.RunTight(500*sim.Microsecond, 3)
	})
	mustComplete(t, k, 0)
	if th.CPUTime < 500*sim.Microsecond {
		t.Errorf("tight loop CPU time %v", th.CPUTime)
	}
	// The tight loop fills the LBR with one identical backward branch.
	core := k.Core(th.CPU())
	if !core.LBR.AllIdenticalBackward() {
		t.Error("tight loop did not leave a spin-like LBR")
	}
	if got := k.Threads(); len(got) != 1 || got[0] != th {
		t.Errorf("Threads() = %v", got)
	}
}

// recorder is a minimal Tracer for the SetTracer test.
type recorder struct{ n int }

// Trace implements Tracer.
func (r *recorder) Trace(at sim.Time, cpu, thread int, kind string, arg int64) { r.n++ }

func TestSetTracerHook(t *testing.T) {
	_, k := testKernel(t, 1, Features{})
	rec := &recorder{}
	k.SetTracer(rec)
	k.Spawn("w", func(th *Thread) { th.Run(sim.Millisecond) })
	mustComplete(t, k, 0)
	if rec.n == 0 {
		t.Error("tracer hook never fired")
	}
	k.SetTracer(nil) // removing must not panic on later events
}
