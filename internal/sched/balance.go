package sched

import "oversub/internal/sim"

// armBalance installs c's periodic load-balance tick, staggered per CPU so
// all cores do not balance at the same instant.
func (k *Kernel) armBalance(c *cpu) {
	if k.costs.BalanceInterval <= 0 {
		return
	}
	stagger := sim.Duration(c.id) * 137 * sim.Microsecond
	c.balance.Rearm(k.costs.BalanceInterval + stagger)
}

func (k *Kernel) balanceTick(c *cpu) {
	if k.live > 0 && c.enabled && !k.feat.Pinned {
		k.pullFromBusiest(c, 0)
	}
	if k.live > 0 {
		c.balance.Rearm(k.costs.BalanceInterval)
	}
}

// idlePull is the newly-idle balance: pull a single waiting thread from the
// busiest runqueue. Reports whether anything was pulled.
func (k *Kernel) idlePull(c *cpu) bool {
	if k.feat.Pinned {
		return false
	}
	return k.pullFromBusiest(c, 1) > 0
}

// pullFromBusiest migrates up to half the imbalance (or maxPull if
// non-zero) from the busiest enabled CPU to c. Running and virtually
// blocked threads are never migrated, and blocked threads do not count as
// load here: the paper's VB "only prevents migration due to frequent sleep
// and wakeups" while real load imbalance is still balanced.
func (k *Kernel) pullFromBusiest(c *cpu, maxPull int) int {
	var busiest *cpu
	for _, o := range k.cpus {
		if o == c || !o.enabled {
			continue
		}
		if busiest == nil || o.eligible() > busiest.eligible() {
			busiest = o
		}
	}
	if busiest == nil {
		return 0
	}
	imbalance := busiest.eligible() - c.eligible()
	if imbalance < 2 {
		return 0
	}
	want := imbalance / 2
	if maxPull > 0 && want > maxPull {
		want = maxPull
	}
	moved := 0
	for moved < want {
		t := stealRightmost(busiest)
		if t == nil {
			break
		}
		k.moveThread(t, busiest, c)
		moved++
	}
	return moved
}

// stealRightmost picks the migratable thread with the largest ordering key
// (least likely to run soon) from c's queue: a backward walk from Max with
// early exit at the first unpinned runnable thread, skipping the virtually
// blocked block at the tree's tail. The forward-walk equivalent visited the
// entire queue per steal.
func stealRightmost(c *cpu) *Thread {
	n := c.tree.Max()
	// Virtually blocked threads sort last; skip the trailing blocked block.
	for n != nil && n.Value.vblocked {
		n = c.tree.Prev(n)
	}
	for ; n != nil; n = c.tree.Prev(n) {
		if n.Value.pinned < 0 {
			return n.Value
		}
	}
	return nil
}

// moveThread migrates a queued thread between runqueues with vruntime
// rebasing and migration accounting.
func (k *Kernel) moveThread(t *Thread, from, to *cpu) {
	k.dequeue(t)
	k.accountMigration(t, from.id, to.id)
	// Rebase vruntime into the destination queue's frame.
	delta := t.vruntime - from.minV
	if delta < 0 {
		delta = 0
	}
	t.vruntime = to.minV + delta
	k.enqueue(to, t)
	if to.curr == nil {
		k.reschedule(to)
	}
}

// SetAllowedCPUs resizes the cpuset to the first n logical CPUs at runtime
// (container CPU elasticity). Threads on disabled CPUs are migrated to
// enabled ones; pinned threads are re-pinned round-robin. n must be
// positive: an empty cpuset has no meaning here (threads would have nowhere
// to run), so n <= 0 panics rather than being silently reinterpreted.
// Counts above the machine size clamp to the machine size.
func (k *Kernel) SetAllowedCPUs(n int) {
	total := len(k.cpus)
	if n <= 0 {
		panic("sched: SetAllowedCPUs of empty cpuset")
	}
	if n > total {
		n = total
	}
	if n == k.nAllowed {
		return
	}
	prev := k.nAllowed
	k.nAllowed = n
	k.trace(-1, nil, "cpuset-resize", int64(n))
	for i, c := range k.cpus {
		c.enabled = i < n
	}
	if n < prev {
		k.evacuateDisabled(prev)
	}
	// Re-pin pinned threads over the new set.
	if k.feat.Pinned {
		k.nextPin = 0
		for _, t := range k.threads {
			if t.state == StateExited || t.pinned < 0 {
				continue
			}
			t.pinned = k.pinNext()
		}
	}
	// Kick every enabled CPU so newly added cores pull work promptly.
	for i := 0; i < n; i++ {
		c := k.cpus[i]
		if c.curr == nil && !c.vbIdle {
			k.reschedule(c)
		}
	}
}

// evacuateDisabled pushes all threads off CPUs that were just disabled.
func (k *Kernel) evacuateDisabled(prev int) {
	for i := k.nAllowed; i < prev; i++ {
		c := k.cpus[i]
		// Preempt whatever is running there.
		if t := c.curr; t != nil {
			k.closeSegment(c)
			k.trace(c.id, t, "preempt", 0)
			k.offCPU(c, t, false)
			k.enqueue(c, t)
		}
		c.vbIdle = false
		c.markIdle(k.eng.Now())
		// Drain the queue.
		for c.tree.Len() > 0 {
			t := c.tree.Min().Value
			k.dequeue(t)
			dst := k.cpus[k.idlestCPU(t.cpu)]
			k.accountMigration(t, c.id, dst.id)
			t.vruntime = dst.minV
			k.enqueue(dst, t)
			if dst.curr == nil {
				k.reschedule(dst)
			}
		}
		c.lastRan = nil
	}
}
