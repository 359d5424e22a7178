// Package epoll models event-based asynchronous I/O blocking — the other
// blocking mechanism the paper integrates virtual blocking into (§4.2,
// memcached). A thread calling Wait sleeps until an event is posted; events
// arrive from interrupt context (network receive).
//
// Under vanilla semantics a blocked waiter takes the full sleep/wakeup path
// through the scheduler. With virtual blocking the waiter stays on its
// runqueue with thread_state set, and a post merely clears the flag.
package epoll

import (
	"oversub/internal/sched"
)

// Event is an opaque payload delivered by Post.
type Event any

// Poll is one epoll instance: a queue of ready events and a FIFO of
// blocked waiters. Both queues are head-indexed rings over a reusable
// backing array: consuming pops advance the head instead of re-slicing,
// so a steady produce/consume cycle allocates nothing.
type Poll struct {
	k         *sched.Kernel
	ready     []Event
	readyHead int
	waiters   []*waiter
	waitHead  int
	// free pools waiter records: a record goes back once a post has popped
	// it and its Wait has returned, so no reference to it remains.
	free []*waiter
}

type waiter struct {
	t     *sched.Thread
	vb    bool
	woken bool
}

// New creates an epoll instance on kernel k.
func New(k *sched.Kernel) *Poll {
	return &Poll{k: k}
}

// Ready returns the number of queued, undelivered events.
func (p *Poll) Ready() int { return len(p.ready) - p.readyHead }

// WaitersCount returns the number of threads blocked in Wait.
func (p *Poll) WaitersCount() int { return len(p.waiters) - p.waitHead }

// Wait blocks t until an event is available and returns it. If an event is
// already queued it is consumed immediately, paying only the syscall entry.
func (p *Poll) Wait(t *sched.Thread) Event {
	p.k.AssertOwns(t)
	costs := p.k.Costs()
	t.Run(costs.SyscallEntry)
	p.k.Metrics.EpollWaits++
	for p.Ready() == 0 {
		w := p.getWaiter(t)
		p.waiters = append(p.waiters, w)
		if w.vb {
			if !w.woken {
				t.VBlock()
			}
		} else {
			t.Run(costs.SleepDequeue)
			if !w.woken {
				t.BlockReason(sched.BlockIO)
			}
		}
		if w.woken {
			// Popped and returned: a record still queued (a wake from
			// elsewhere) stays live until a post pops it.
			p.free = append(p.free, w)
		}
		// Woken: either an event is ready or we raced with another waiter
		// that consumed it; loop and re-block in that case.
	}
	ev := p.ready[p.readyHead]
	p.ready[p.readyHead] = nil
	p.readyHead++
	if p.readyHead == len(p.ready) {
		p.ready = p.ready[:0]
		p.readyHead = 0
	}
	return ev
}

// Post delivers an event from interrupt context (e.g. a NIC receive): the
// wakeup cost lands on the target CPU as kernel overhead.
func (p *Poll) Post(ev Event) {
	p.ready = append(p.ready, ev)
	p.k.Metrics.EpollPosts++
	if w := p.popWaiter(); w != nil {
		if w.vb {
			p.k.VWake(nil, w.t)
		} else {
			p.k.WakeIRQ(w.t)
		}
	}
}

// getWaiter takes a waiter record for t from the pool, or makes one.
func (p *Poll) getWaiter(t *sched.Thread) *waiter {
	var w *waiter
	if last := len(p.free) - 1; last >= 0 {
		w = p.free[last]
		p.free = p.free[:last]
	} else {
		w = new(waiter)
	}
	*w = waiter{t: t, vb: p.k.Features().VB}
	return w
}

func (p *Poll) popWaiter() *waiter {
	if p.waitHead == len(p.waiters) {
		return nil
	}
	w := p.waiters[p.waitHead]
	p.waiters[p.waitHead] = nil
	p.waitHead++
	if p.waitHead == len(p.waiters) {
		p.waiters = p.waiters[:0]
		p.waitHead = 0
	}
	w.woken = true
	return w
}
