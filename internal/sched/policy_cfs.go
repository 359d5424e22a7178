package sched

import "oversub/internal/sim"

// cfsPolicy is the Completely Fair Scheduler: the runqueue is ordered by
// virtual runtime, the leftmost eligible thread runs next for a slice of
// SchedLatency divided among the queue, and a wakeup preempts when the
// running thread's projected vruntime leads the woken one by more than the
// wakeup granularity. It is the extraction of the scheduler the kernel was
// originally welded to; with this policy selected the simulation is
// byte-identical to the pre-Policy tree.
type cfsPolicy struct{}

func (cfsPolicy) Less(a, b *Thread) bool { return a.vruntime < b.vruntime }

func (cfsPolicy) Tick(c *cpu, t *Thread) sim.Duration { return c.k.fairSlice(c) }

// WakePreempts accounts curr's time since dispatch, as the scheduler tick
// would — the stored vruntime is only updated when segments close — and
// preempts when curr leads the woken thread by more than gran.
func (cfsPolicy) WakePreempts(c *cpu, curr, t *Thread, gran sim.Duration) bool {
	currVr := curr.vruntime + sim.Duration(c.k.eng.Now().Sub(c.currStart))
	return currVr-t.vruntime > gran
}
