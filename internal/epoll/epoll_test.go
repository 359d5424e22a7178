package epoll

import (
	"testing"

	"oversub/internal/hw"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

func testKernel(t *testing.T, ncpu int, feat sched.Features) *sched.Kernel {
	t.Helper()
	eng := sim.NewEngine(11)
	return sched.New(eng, sched.Config{
		Topo:  hw.Topology{Sockets: 1, CoresPerSocket: ncpu, ThreadsPerCore: 1},
		NCPUs: ncpu,
		Costs: sched.DefaultCosts(),
		Feat:  feat,
		Seed:  3,
	})
}

func TestWaitConsumesQueuedEvent(t *testing.T) {
	k := testKernel(t, 1, sched.Features{})
	p := New(k)
	p.Post("hello")
	var got Event
	k.Spawn("w", func(th *sched.Thread) {
		got = p.Wait(th)
	})
	if err := k.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("got %v, want hello", got)
	}
	if p.Ready() != 0 {
		t.Errorf("Ready = %d after consume, want 0", p.Ready())
	}
}

func TestWaitBlocksUntilPost(t *testing.T) {
	k := testKernel(t, 1, sched.Features{})
	p := New(k)
	var when sim.Time
	k.Spawn("w", func(th *sched.Thread) {
		p.Wait(th)
		when = k.Now()
	})
	k.Engine().After(4*sim.Millisecond, func() { p.Post(1) })
	if err := k.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if when < sim.Time(4*sim.Millisecond) {
		t.Errorf("waiter resumed at %v, before the post", when)
	}
}

func TestEventsDeliveredInOrder(t *testing.T) {
	k := testKernel(t, 1, sched.Features{})
	p := New(k)
	var got []Event
	k.Spawn("w", func(th *sched.Thread) {
		for i := 0; i < 3; i++ {
			got = append(got, p.Wait(th))
			th.Run(100 * sim.Microsecond)
		}
	})
	for i := 0; i < 3; i++ {
		i := i
		k.Engine().After(sim.Duration(i+1)*sim.Millisecond, func() { p.Post(i) })
	}
	if err := k.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Errorf("event %d = %v, want %d", i, v, i)
		}
	}
}

func TestMultipleWaitersEachGetOneEvent(t *testing.T) {
	k := testKernel(t, 2, sched.Features{})
	p := New(k)
	served := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(th *sched.Thread) {
			p.Wait(th)
			served++
		})
	}
	for i := 0; i < 4; i++ {
		k.Engine().After(sim.Duration(i+2)*sim.Millisecond, func() { p.Post(i) })
	}
	if err := k.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if served != 4 {
		t.Errorf("served = %d, want 4", served)
	}
}

func TestVBWaitPath(t *testing.T) {
	k := testKernel(t, 1, sched.Features{VB: true})
	p := New(k)
	done := false
	k.Spawn("w", func(th *sched.Thread) {
		p.Wait(th)
		done = true
	})
	k.Spawn("busy", func(th *sched.Thread) {
		th.Run(3 * sim.Millisecond)
	})
	k.Engine().After(5*sim.Millisecond, func() { p.Post(1) })
	if err := k.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("VB waiter never resumed")
	}
	if k.Metrics.VBWakes == 0 {
		t.Error("expected the VB wake path")
	}
}

func TestWaitersCountTracking(t *testing.T) {
	k := testKernel(t, 2, sched.Features{})
	p := New(k)
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(th *sched.Thread) { p.Wait(th) })
	}
	k.Engine().After(2*sim.Millisecond, func() {
		if p.WaitersCount() != 3 {
			t.Errorf("WaitersCount = %d, want 3", p.WaitersCount())
		}
		for i := 0; i < 3; i++ {
			p.Post(i)
		}
	})
	if err := k.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
}
