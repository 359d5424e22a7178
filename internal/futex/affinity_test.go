package futex

import (
	"testing"

	"oversub/internal/sched"
)

// TestCrossKernelWaitPanics pins the kernel-affinity guard: a thread from
// one kernel entering another kernel's futex path (two machines of one
// fleet engine) must fail at the crossing, not corrupt two runqueues.
func TestCrossKernelWaitPanics(t *testing.T) {
	k1 := testKernel(t, 1, sched.Features{})
	k2 := testKernel(t, 1, sched.Features{})
	f := NewTable(k1, 0).NewFutex(0)
	foreign := k2.Spawn("foreign", func(th *sched.Thread) {})
	for name, call := range map[string]func(){
		"Wait":        func() { f.Wait(foreign, 0) },
		"WaitTimeout": func() { f.WaitTimeout(foreign, 0, 100) },
		"Wake":        func() { f.Wake(foreign, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a thread from another kernel", name)
				}
			}()
			call()
		}()
	}
}
