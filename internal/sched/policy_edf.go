package sched

import "oversub/internal/sim"

// edfPolicy is Earliest Deadline First: each thread carries an absolute
// deadline, refreshed at every wakeup to now + its relative deadline
// (Thread.SetRelDeadline, typically the workload's per-thread work interval;
// SchedLatency when unset), and the runqueue is deadline-ordered. A wakeup
// preempts whenever the woken thread's deadline is earlier than the running
// thread's. CPU-bound threads that exhaust a slice without blocking have
// their expired deadlines postponed by one period at requeue time —
// constant-bandwidth-server style replenishment — so batch work cannot
// permanently starve later deadlines.
type edfPolicy struct {
	k *Kernel
}

func (p *edfPolicy) Name() string { return "edf" }

func (p *edfPolicy) Less(a, b *Thread) bool { return a.deadline < b.deadline }

func (p *edfPolicy) PickNext(c *cpu) *Thread { return pickLeftmost(c) }

// Enqueue postpones an already-expired deadline by one period so a
// slice-expired CPU hog re-enters the queue behind still-live deadlines.
// The key mutation is safe here: the hook runs before tree insertion.
func (p *edfPolicy) Enqueue(c *cpu, t *Thread) {
	now := p.k.eng.Now()
	if t.deadline <= now {
		t.deadline = now.Add(p.relFor(t))
	}
}

func (p *edfPolicy) Dequeue(c *cpu, t *Thread) {}

// Woken starts a fresh period: the wakeup is the job arrival, so the
// absolute deadline is now + the thread's relative deadline.
func (p *edfPolicy) Woken(c *cpu, t *Thread) {
	t.deadline = p.k.eng.Now().Add(p.relFor(t))
}

func (p *edfPolicy) relFor(t *Thread) sim.Duration {
	if t.relDeadline > 0 {
		return t.relDeadline
	}
	return p.k.costs.SchedLatency
}

func (p *edfPolicy) Tick(c *cpu, t *Thread) sim.Duration { return p.k.fairSlice(c) }

func (p *edfPolicy) WakeTarget(t *Thread) int { return p.k.defaultWakeTarget(t) }

func (p *edfPolicy) WakePreempts(c *cpu, curr, t *Thread, gran sim.Duration) bool {
	return t.deadline < curr.deadline
}

func (p *edfPolicy) StealCandidate(c *cpu) *Thread { return stealRightmost(c) }
