// Package futex models the Linux fast-userspace-mutex kernel interface on
// top of the simulated scheduler, in both its vanilla form and with the
// paper's virtual blocking.
//
// Vanilla path (paper §2.4, Figure 5): a failed wait traps into the kernel,
// takes the hash-bucket lock, dequeues the thread from the CPU runqueue,
// enqueues it on the bucket's sleep queue, and transitions it to sleep. A
// wake takes the bucket lock, moves waiters to a temporary wake_q, and then
// wakes them one at a time — idlest-core selection, remote runqueue lock,
// enqueue, preemption check — serializing bulk wakeups and flapping the
// per-core load signal.
//
// Virtual blocking path (§3.1, Figure 7): the bucket queue is kept (it
// preserves sleep/wake order), but the thread never leaves the CPU
// runqueue; it sets thread_state and is sorted behind all runnable threads.
// A wake clears the flag and restores the thread's position — no core
// selection, no remote locks, no migration. When fewer threads wait on the
// bucket than there are cores, VB is disabled and the vanilla path used,
// exactly as the paper specifies.
package futex

import (
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// DefaultBuckets matches the order of magnitude of the kernel's futex hash
// table for one process.
const DefaultBuckets = 16

// Table is a futex hash table bound to one simulated kernel.
type Table struct {
	k       *sched.Kernel
	buckets []*bucket
	nextID  uint64
	// freeW pools waiter records: a Wait that has fully returned releases
	// its record for the next Wait on any futex of this table. Stale
	// references held by in-flight wakers are detected by generation
	// counter (see wakeRef).
	freeW []*waiter
}

type bucket struct {
	lock    *sched.KLock
	waiters []*waiter
}

type waiter struct {
	t  *sched.Thread
	f  *Futex
	vb bool
	// woken is set (under the bucket lock) when a wake pops the waiter;
	// the sleeping side checks it to avoid sleeping past its own wake.
	woken bool
	// done is set by the waiter's thread the moment its Wait returns. A
	// waker that paid its serialized per-waiter costs only then delivers
	// the actual wakeup; if the target already consumed the wake through
	// the woken flag and moved on (possibly to sleep on something else),
	// the deferred wakeup must be dropped or it would spuriously wake the
	// later sleep and leave a stale queue entry that swallows a real
	// wakeup.
	done bool
	// expired is set by the WaitTimeout timer when the deadline fired
	// before a wake arrived.
	expired bool
	// gen increments when the record is released to the pool, invalidating
	// every wakeRef still pointing at it — the pooled generalization of the
	// done flag.
	gen uint32
}

// wakeRef is a popped waiter pinned to the generation it was popped at. A
// waker that pays serialized per-waiter costs before delivering wakeups
// holds these across simulated time; if the generation no longer matches,
// the target consumed the wake, returned, and its record was recycled — the
// deferred wakeup must be dropped exactly as with the done flag.
type wakeRef struct {
	w   *waiter
	gen uint32
}

// stale reports whether the deferred wakeup for r must be dropped.
func (r wakeRef) stale() bool { return r.w.gen != r.gen || r.w.done }

// getWaiter takes a waiter record from the pool, or makes one.
func (tbl *Table) getWaiter(t *sched.Thread, f *Futex, vb bool) *waiter {
	if k := len(tbl.freeW) - 1; k >= 0 {
		w := tbl.freeW[k]
		tbl.freeW[k] = nil
		tbl.freeW = tbl.freeW[:k]
		w.t, w.f, w.vb = t, f, vb
		w.woken, w.done, w.expired = false, false, false
		return w
	}
	return &waiter{t: t, f: f, vb: vb}
}

// putWaiter releases a record whose Wait has returned. The caller must have
// set done first; the generation bump retires outstanding wakeRefs.
func (tbl *Table) putWaiter(w *waiter) {
	w.gen++
	w.t, w.f = nil, nil
	tbl.freeW = append(tbl.freeW, w)
}

// Futex is one user-level synchronization word with kernel wait support.
type Futex struct {
	tbl *Table
	b   *bucket
	// Word is the user-level futex value; user code reads and CASes it
	// directly, trapping into Wait/Wake only on contention.
	Word *sched.Word
	// maxBatch is the largest number of waiters one Wake released — the
	// signal that this futex backs group synchronization (barrier,
	// condition broadcast) rather than one-at-a-time mutex handoff.
	maxBatch int
}

// NewTable builds a futex table over kernel k with n hash buckets
// (DefaultBuckets if n <= 0).
func NewTable(k *sched.Kernel, n int) *Table {
	if n <= 0 {
		n = DefaultBuckets
	}
	t := &Table{k: k, buckets: make([]*bucket, n)}
	for i := range t.buckets {
		t.buckets[i] = &bucket{lock: k.NewKLock(uint64(0x100 + i))}
	}
	return t
}

// Kernel returns the owning kernel.
func (tbl *Table) Kernel() *sched.Kernel { return tbl.k }

// NewFutex allocates a futex with the given initial value. Futexes are
// assigned to hash buckets round-robin, modelling address hashing.
func (tbl *Table) NewFutex(initial uint64) *Futex {
	f := &Futex{
		tbl:  tbl,
		b:    tbl.buckets[tbl.nextID%uint64(len(tbl.buckets))],
		Word: tbl.k.NewWord(initial),
	}
	tbl.nextID++
	return f
}

// useVB reports whether this wait should take the virtual-blocking path.
// VB is the cure for bulk wakeups: it engages only when (a) the feature is
// on, (b) the futex holds at least a core's worth of waiters — otherwise
// all waiters could wake onto dedicated cores simultaneously and VB is
// turned off (§3.1) — and (c) the futex has shown group-wakeup behaviour
// (a Wake that released several waiters at once). One-at-a-time mutex
// handoff gains nothing from VB (§4.2: "mutex does not benefit much") and
// would lose the idlest-core placement a vanilla wake gets, so such
// futexes stay on the vanilla path.
func (f *Futex) useVB() bool {
	k := f.tbl.k
	if !k.Features().VB {
		return false
	}
	return f.maxBatch >= 2 && f.Waiters() >= k.AllowedCPUs()
}

// Wait blocks t until a Wake, provided the futex value still equals val
// when checked under the bucket lock; it returns false immediately (EAGAIN)
// otherwise. The caller is charged the full kernel path.
func (f *Futex) Wait(t *sched.Thread, val uint64) bool {
	k := f.tbl.k
	k.AssertOwns(t)
	costs := k.Costs()
	t.Run(costs.SyscallEntry)
	f.b.lock.Lock(t)
	t.RunKernel(costs.BucketLockHold)
	if f.Word.Load() != val {
		f.b.lock.Unlock(t)
		return false
	}
	for _, x := range f.b.waiters {
		if x.t == t {
			panic("futex: thread already queued in this bucket (kernel invariant)")
		}
	}
	w := f.tbl.getWaiter(t, f, f.useVB())
	f.b.waiters = append(f.b.waiters, w)
	f.b.lock.Unlock(t)
	k.Metrics.FutexWaits++
	if w.vb {
		if !w.woken {
			t.VBlock()
		}
	} else {
		// The vanilla sleep transition: dequeue from the runqueue, state
		// change, schedule away.
		t.Run(costs.SleepDequeue)
		if !w.woken {
			t.BlockReason(sched.BlockFutex)
		}
	}
	w.done = true
	f.tbl.putWaiter(w)
	return true
}

// Wake wakes up to n waiters of this futex, returning how many. The waker
// pays for the bucket lock, the per-waiter wake_q move, and — on the
// vanilla path — the full per-waiter wakeup (core selection, remote
// runqueue lock, enqueue, preemption), which is what serializes broadcast
// wakeups under oversubscription.
func (f *Futex) Wake(t *sched.Thread, n int) int {
	if n <= 0 {
		return 0
	}
	k := f.tbl.k
	k.AssertOwns(t)
	costs := k.Costs()
	t.Run(costs.SyscallEntry)
	f.b.lock.Lock(t)
	t.RunKernel(costs.BucketLockHold)
	popped := f.popWaiters(t, n, costs.WakeQMove)
	if len(popped) > f.maxBatch {
		f.maxBatch = len(popped)
	}
	f.b.lock.Unlock(t)
	for _, r := range popped {
		k.Metrics.FutexWakes++
		if r.stale() {
			continue // the target already consumed this wake and moved on
		}
		if r.w.vb {
			k.VWake(t, r.w.t)
		} else {
			k.WakeVanilla(t, r.w.t)
		}
	}
	return len(popped)
}

// WakeAll wakes every waiter of this futex.
func (f *Futex) WakeAll(t *sched.Thread) int {
	return f.Wake(t, 1<<30)
}

// Requeue implements FUTEX_CMP_REQUEUE: wake up to nWake waiters of f and
// transfer up to nMove of the remaining waiters onto target's wait queue
// without waking them — glibc's condition-variable broadcast uses this to
// hand waiters directly to the mutex instead of thundering them all awake.
// It returns (woken, moved, ok). If expected is non-nil and the futex value
// no longer matches, nothing happens and ok is false (EAGAIN).
func (f *Futex) Requeue(t *sched.Thread, nWake, nMove int, target *Futex, expected *uint64) (woken, moved int, ok bool) {
	k := f.tbl.k
	costs := k.Costs()
	t.Run(costs.SyscallEntry)
	f.b.lock.Lock(t)
	t.RunKernel(costs.BucketLockHold)
	if expected != nil && f.Word.Load() != *expected {
		f.b.lock.Unlock(t)
		return 0, 0, false
	}
	popped := f.popWaiters(t, nWake, costs.WakeQMove)
	if len(popped) > f.maxBatch {
		f.maxBatch = len(popped)
	}
	// Transfer the next nMove waiters to the target futex. Within the same
	// bucket this is a relabel; across buckets the target's lock is taken
	// too (the kernel orders the two locks by address; the single-threaded
	// engine cannot deadlock, but the hold time is still paid).
	sameBucket := target.b == f.b
	if !sameBucket {
		target.b.lock.Lock(t)
		t.RunKernel(costs.BucketLockHold)
	}
	kept := f.b.waiters[:0]
	for _, w := range f.b.waiters {
		if moved < nMove && w.f == f {
			w.f = target
			moved++
			t.RunKernel(costs.WakeQMove)
			if !sameBucket {
				target.b.waiters = append(target.b.waiters, w)
				continue
			}
		}
		kept = append(kept, w)
	}
	f.b.waiters = kept
	if !sameBucket {
		target.b.lock.Unlock(t)
	}
	f.b.lock.Unlock(t)
	for _, r := range popped {
		k.Metrics.FutexWakes++
		if r.stale() {
			continue // the target already consumed this wake and moved on
		}
		if r.w.vb {
			k.VWake(t, r.w.t)
		} else {
			k.WakeVanilla(t, r.w.t)
		}
	}
	return len(popped), moved, true
}

// Waiters returns the number of threads currently queued on this futex.
func (f *Futex) Waiters() int {
	n := 0
	for _, w := range f.b.waiters {
		if w.f == f {
			n++
		}
	}
	return n
}

// popWaiters removes up to n waiters of futex f from the shared bucket in
// FIFO order, charging the waker per moved waiter. Must hold the bucket
// lock.
func (f *Futex) popWaiters(t *sched.Thread, n int, moveCost sim.Duration) []wakeRef {
	var popped []wakeRef
	kept := f.b.waiters[:0]
	for _, w := range f.b.waiters {
		if len(popped) < n && w.f == f {
			w.woken = true
			popped = append(popped, wakeRef{w: w, gen: w.gen})
			t.RunKernel(moveCost)
		} else {
			kept = append(kept, w)
		}
	}
	f.b.waiters = kept
	return popped
}

// WaitTimeout is Wait with a relative timeout, as FUTEX_WAIT with a
// timespec: it returns (slept, timedOut). A mismatched value returns
// (false, false) immediately; a wake before the deadline returns
// (true, false); expiry returns (true, true).
func (f *Futex) WaitTimeout(t *sched.Thread, val uint64, timeout sim.Duration) (slept, timedOut bool) {
	k := f.tbl.k
	k.AssertOwns(t)
	costs := k.Costs()
	t.Run(costs.SyscallEntry)
	f.b.lock.Lock(t)
	t.RunKernel(costs.BucketLockHold)
	if f.Word.Load() != val {
		f.b.lock.Unlock(t)
		return false, false
	}
	w := f.tbl.getWaiter(t, f, f.useVB())
	f.b.waiters = append(f.b.waiters, w)
	f.b.lock.Unlock(t)
	k.Metrics.FutexWaits++

	timer := k.Engine().AfterCall(timeout, waitTimeoutFire, w, 0, 0)

	if w.vb {
		if !w.woken {
			t.VBlock()
		}
	} else {
		t.Run(costs.SleepDequeue)
		if !w.woken {
			t.BlockReason(sched.BlockFutex)
		}
	}
	timer.Cancel()
	w.done = true
	expired := w.expired
	f.tbl.putWaiter(w)
	return true, expired
}

// waitTimeoutFire is the WaitTimeout deadline, firing in interrupt context:
// it removes the waiter from the bucket (if still there) and wakes the
// thread.
func waitTimeoutFire(arg any, _, _ uint64) {
	w := arg.(*waiter)
	if w.woken || w.done {
		return
	}
	w.woken = true
	w.expired = true
	w.f.removeWaiter(w)
	k := w.f.tbl.k
	if w.vb {
		k.VWake(nil, w.t)
	} else {
		k.WakeIRQ(w.t)
	}
}

// removeWaiter deletes w from the bucket queue (timer expiry path).
func (f *Futex) removeWaiter(w *waiter) {
	kept := f.b.waiters[:0]
	for _, x := range f.b.waiters {
		if x != w {
			kept = append(kept, x)
		}
	}
	f.b.waiters = kept
}

// DebugWaiterIDs lists the thread IDs queued on this futex (diagnostics).
func (f *Futex) DebugWaiterIDs() []int {
	var out []int
	for _, w := range f.b.waiters {
		if w.f == f {
			out = append(out, w.t.ID)
		}
	}
	return out
}
