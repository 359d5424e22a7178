package sched

import "oversub/internal/sim"

// edfPolicy is Earliest Deadline First: the runqueue is ordered by each
// thread's absolute deadline, and a wakeup preempts whenever the woken
// thread's deadline is earlier than the running thread's. The kernel keeps
// the deadline for every thread (Kernel.refreshDeadline at each wakeup,
// CBS-style postponement of an expired deadline at each enqueue); only
// this policy reads it.
type edfPolicy struct{}

func (edfPolicy) Less(a, b *Thread) bool { return a.deadline < b.deadline }

func (edfPolicy) Tick(c *cpu, t *Thread) sim.Duration { return c.k.fairSlice(c) }

func (edfPolicy) WakePreempts(c *cpu, curr, t *Thread, gran sim.Duration) bool {
	return t.deadline < curr.deadline
}
