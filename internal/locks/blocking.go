package locks

import (
	"oversub/internal/futex"
	"oversub/internal/sched"
)

// Mutex is a pthread-style futex mutex: a user-space CAS fast path and a
// kernel slow path on contention. State encoding follows glibc: 0 unlocked,
// 1 locked, 2 locked with (possible) waiters.
type Mutex struct {
	f *futex.Futex
}

// NewMutex allocates an unlocked mutex on the given futex table.
func NewMutex(tbl *futex.Table) *Mutex {
	return &Mutex{f: tbl.NewFutex(0)}
}

// Name implements Locker.
func (m *Mutex) Name() string { return "pthread_mutex" }

// Lock acquires the mutex, sleeping in the kernel on contention.
func (m *Mutex) Lock(t *sched.Thread) {
	t.Run(CriticalCost)
	if m.f.Word.CAS(0, 1) {
		return
	}
	for {
		// Advertise waiters: 1 -> 2 (or observe it already 2).
		v := m.f.Word.Load()
		if v == 2 || (v == 1 && m.f.Word.CAS(1, 2)) {
			m.f.Wait(t, 2)
		}
		t.Run(CriticalCost)
		if m.f.Word.CAS(0, 2) {
			return
		}
	}
}

// Unlock releases the mutex, waking one waiter if any.
func (m *Mutex) Unlock(t *sched.Thread) {
	t.Run(CriticalCost)
	if m.f.Word.Swap(0) == 2 {
		m.f.Wake(t, 1)
	}
}

// lockContended acquires the mutex and leaves it in the contended state,
// so the next Unlock is guaranteed to wake a successor.
func (m *Mutex) lockContended(t *sched.Thread) {
	t.Run(CriticalCost)
	for {
		if m.f.Word.CAS(0, 2) {
			return
		}
		v := m.f.Word.Load()
		if v == 2 || (v == 1 && m.f.Word.CAS(1, 2)) {
			m.f.Wait(t, 2)
		}
	}
}

// Cond is a pthread-style condition variable over a futex sequence word.
type Cond struct {
	seq *futex.Futex
	// requeued counts waiters moved onto a mutex futex by
	// BroadcastRequeue that have not yet re-acquired; they must relock in
	// the contended state to keep the handoff chain alive.
	requeued int
}

// NewCond allocates a condition variable.
func NewCond(tbl *futex.Table) *Cond {
	return &Cond{seq: tbl.NewFutex(0)}
}

// Wait atomically releases mu and sleeps until signalled, then reacquires
// mu, as pthread_cond_wait. A waiter woken out of a requeue chain relocks
// in the contended state (glibc's __pthread_mutex_cond_lock): an
// uncontended release by it would strand the remaining requeued waiters.
func (c *Cond) Wait(t *sched.Thread, mu *Mutex) {
	snapshot := c.seq.Word.Load()
	mu.Unlock(t)
	c.seq.Wait(t, snapshot)
	if c.requeued > 0 {
		c.requeued--
		mu.lockContended(t)
		return
	}
	mu.Lock(t)
}

// Signal wakes one waiter.
func (c *Cond) Signal(t *sched.Thread) {
	c.seq.Word.Add(1)
	c.seq.Wake(t, 1)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *sched.Thread) {
	c.seq.Word.Add(1)
	c.seq.WakeAll(t)
}

// Barrier is a pthread-style barrier: the last arriver flips the
// generation and broadcasts; everyone else sleeps on the generation word.
type Barrier struct {
	parties uint64
	count   *sched.Word
	gen     *futex.Futex
}

// NewBarrier allocates a barrier for n parties.
func NewBarrier(tbl *futex.Table, n int) *Barrier {
	return &Barrier{
		parties: uint64(n),
		count:   tbl.Kernel().NewWord(0),
		gen:     tbl.NewFutex(0),
	}
}

// Await blocks until all parties arrive. It returns true on the thread
// that released the barrier (the "serial" thread, as in pthreads).
func (b *Barrier) Await(t *sched.Thread) bool {
	t.Run(CriticalCost)
	gen := b.gen.Word.Load()
	if b.count.Add(1) == b.parties {
		b.count.Store(0)
		b.gen.Word.Add(1)
		b.gen.WakeAll(t)
		return true
	}
	for b.gen.Word.Load() == gen {
		b.gen.Wait(t, gen)
	}
	return false
}

// Semaphore is a counting semaphore over a futex.
type Semaphore struct {
	f *futex.Futex
}

// NewSemaphore allocates a semaphore with the given initial count.
func NewSemaphore(tbl *futex.Table, initial uint64) *Semaphore {
	return &Semaphore{f: tbl.NewFutex(initial)}
}

// Acquire decrements the semaphore, sleeping while it is zero.
func (s *Semaphore) Acquire(t *sched.Thread) {
	for {
		t.Run(CriticalCost)
		v := s.f.Word.Load()
		if v > 0 && s.f.Word.CAS(v, v-1) {
			return
		}
		if v == 0 {
			s.f.Wait(t, 0)
		}
	}
}

// Release increments the semaphore and wakes one waiter.
func (s *Semaphore) Release(t *sched.Thread) {
	t.Run(CriticalCost)
	s.f.Word.Add(1)
	s.f.Wake(t, 1)
}

// CondL is a condition variable usable with any Locker — the way lock
// interposition libraries (litl, as used by the SHFLLOCK evaluation)
// combine replaced mutexes with futex-based condition waiting.
type CondL struct {
	seq *futex.Futex
}

// NewCondL allocates a lock-agnostic condition variable.
func NewCondL(tbl *futex.Table) *CondL {
	return &CondL{seq: tbl.NewFutex(0)}
}

// Wait atomically releases l and sleeps until signalled, then reacquires l.
func (c *CondL) Wait(t *sched.Thread, l Locker) {
	snapshot := c.seq.Word.Load()
	l.Unlock(t)
	c.seq.Wait(t, snapshot)
	l.Lock(t)
}

// Signal wakes one waiter.
func (c *CondL) Signal(t *sched.Thread) {
	c.seq.Word.Add(1)
	c.seq.Wake(t, 1)
}

// Broadcast wakes all waiters.
func (c *CondL) Broadcast(t *sched.Thread) {
	c.seq.Word.Add(1)
	c.seq.WakeAll(t)
}

// BroadcastRequeue wakes one waiter and requeues the rest directly onto
// mu's futex (FUTEX_CMP_REQUEUE), so they are handed to the mutex instead
// of thundering awake and re-contending — glibc's broadcast strategy. The
// caller must hold mu; the mutex is marked contended so each Unlock hands
// off to the next requeued waiter.
func (c *Cond) BroadcastRequeue(t *sched.Thread, mu *Mutex) {
	c.seq.Word.Add(1)
	if mu.f.Word.Load() != 0 {
		mu.f.Word.Store(2)
	}
	woken, moved, _ := c.seq.Requeue(t, 1, 1<<30, mu.f, nil)
	c.requeued += woken + moved
}
