package epoll

import (
	"testing"

	"oversub/internal/sched"
)

// TestCrossKernelWaitPanics pins the kernel-affinity guard: a thread from
// one kernel entering another kernel's epoll path (two machines of one
// fleet engine) must fail at the crossing.
func TestCrossKernelWaitPanics(t *testing.T) {
	k1 := testKernel(t, 1, sched.Features{})
	k2 := testKernel(t, 1, sched.Features{})
	p := New(k1)
	foreign := k2.Spawn("foreign", func(th *sched.Thread) {})
	defer func() {
		if recover() == nil {
			t.Error("Wait accepted a thread from another kernel")
		}
	}()
	p.Wait(foreign)
}
