package oversub

import (
	"strings"
	"testing"
)

func TestFacadeOMPTeam(t *testing.T) {
	sys := NewSystem(SystemConfig{Cores: 4, Seed: 1})
	sum := 0
	sys.Spawn("master", func(th *Thread) {
		team := sys.NewOMPTeam(8)
		team.ParallelFor(th, 0, 100, 4, OMPDynamic, func(th *Thread, w, i int) {
			th.Run(5 * Microsecond)
			sum += i
		})
		team.Shutdown(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 4950 {
		t.Errorf("sum = %d, want 4950", sum)
	}
}

func TestFacadeRWLock(t *testing.T) {
	sys := NewSystem(SystemConfig{Cores: 4, Seed: 2})
	rw := sys.NewRWLock()
	reads := 0
	for i := 0; i < 6; i++ {
		sys.Spawn("r", func(th *Thread) {
			rw.RLock(th)
			reads++
			th.Run(Millisecond)
			rw.RUnlock(th)
		})
	}
	sys.Spawn("w", func(th *Thread) {
		th.Run(500 * Microsecond)
		rw.Lock(th)
		th.Run(Millisecond)
		rw.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if reads != 6 {
		t.Errorf("reads = %d, want 6", reads)
	}
}

func TestFacadeTraceRing(t *testing.T) {
	sys := NewSystem(SystemConfig{Cores: 2, Seed: 3})
	ring := sys.Trace(1 << 12)
	sys.Spawn("w", func(th *Thread) { th.Run(2 * Millisecond) })
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Fatal("trace ring empty")
	}
	var sb strings.Builder
	if _, err := ring.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dispatch") {
		t.Error("trace dump missing dispatch events")
	}
}

func TestFacadeWebServing(t *testing.T) {
	r := RunWebServing(WebConfig{Workers: 8, Cores: 4, Requests: 1200, Seed: 4})
	if r.Served != 1200 || r.ThroughputOpsSec <= 0 {
		t.Fatalf("web serving run implausible: %+v", r)
	}
	if r.P95 < r.Mean/2 || r.P99 < r.P95 {
		t.Errorf("latency ordering broken: mean=%v p95=%v p99=%v", r.Mean, r.P95, r.P99)
	}
}

func TestFacadeRunFor(t *testing.T) {
	sys := NewSystem(SystemConfig{Cores: 1, Seed: 5})
	sys.Spawn("forever", func(th *Thread) {
		for i := 0; i < 1_000_000; i++ {
			th.Run(Millisecond)
		}
	})
	if err := sys.RunFor(10 * Millisecond); err == nil {
		t.Error("RunFor should report unfinished threads")
	}
	if sys.Now() < Time(10*Millisecond) {
		t.Errorf("clock %v did not reach the horizon", sys.Now())
	}
}

func TestFacadeCostsOverride(t *testing.T) {
	costs := DefaultCosts()
	costs.ContextSwitch = 50 * Microsecond // absurd, to be observable
	slow := NewSystem(SystemConfig{Cores: 1, Costs: &costs, Seed: 6})
	for i := 0; i < 2; i++ {
		slow.Spawn("w", func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.Run(200 * Microsecond)
				th.Yield()
			}
		})
	}
	if err := slow.Run(); err != nil {
		t.Fatal(err)
	}
	// 4ms of work + ~20 switches * 50us >= 5ms.
	if slow.Now() < Time(5*Millisecond) {
		t.Errorf("end %v; the cost override was not applied", slow.Now())
	}
}

func TestFacadeMiscConstructors(t *testing.T) {
	if PaperTopology(2).NumCPUs() != 72 {
		t.Error("PaperTopology wrong")
	}
	sig := NewSpinSig(0x1000, 4, true)
	if !sig.HasPause || !sig.Branch.Backward() {
		t.Error("NewSpinSig wrong")
	}
	sys := NewSystem(SystemConfig{Cores: 2, Seed: 7})
	if sys.Futexes() == nil || sys.Kernel() == nil || sys.Engine() == nil {
		t.Error("accessors returned nil")
	}
	sem := sys.NewSemaphore(1)
	cond := sys.NewCond()
	mu := sys.NewMutex()
	poll := sys.NewPoll()
	done := false
	sys.Spawn("w", func(th *Thread) {
		sem.Acquire(th)
		mu.Lock(th)
		cond.Signal(th) // no waiters: harmless
		mu.Unlock(th)
		sem.Release(th)
		poll.Post("x")
		if poll.Wait(th) != "x" {
			panic("poll round trip failed")
		}
		done = true
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("misc constructor exercise did not finish")
	}
}

func TestFacadePLEDetector(t *testing.T) {
	sys := NewSystem(SystemConfig{Cores: 1, Detect: DetectPLE, Features: Features{VM: true}, Seed: 8})
	flag := sys.NewWord(0)
	sig := NewSpinSig(0x2000, 6, true) // PAUSE loop: PLE-visible
	sys.Spawn("spinner", func(th *Thread) {
		th.SpinUntil(func() bool { return flag.Load() == 1 }, sig)
	})
	sys.Spawn("worker", func(th *Thread) {
		th.Run(3 * Millisecond)
		flag.Store(1)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Detector().Stats.Detections == 0 {
		t.Error("PLE missed a PAUSE loop inside a VM")
	}
}
