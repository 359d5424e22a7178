package sched

import "oversub/internal/hw"

// KLock is a kernel-internal spinlock (futex hash-bucket locks, runqueue
// locks). It is a barging test-and-set lock: FIFO ticket ordering would
// convoy under oversubscription the moment one ticket holder is
// descheduled, stalling every later ticket — the lock-holder-preemption
// pathology. Barging lets whichever waiter is on a CPU proceed.
//
// Waiters burn CPU while spinning, which is how the serialization of bulk
// wakeups under oversubscription manifests as lost throughput. Holders run
// non-preemptible critical sections (RunKernel), as real kernels disable
// preemption under these locks.
type KLock struct {
	word   *Word
	sig    hw.SpinSig
	holder *Thread
	// free is the spin condition, built once at construction so contended
	// acquisitions re-arm the same function value instead of allocating a
	// closure per spin.
	free func() bool
}

// NewKLock allocates a kernel lock.
func (k *Kernel) NewKLock(name uint64) *KLock {
	l := &KLock{
		word: k.NewWord(0),
		sig:  hw.NewSpinSig(0xffff800000000000+name*0x40, 6, false),
	}
	l.free = func() bool { return l.word.Load() == 0 }
	return l
}

// Lock acquires the lock for t, spinning in kernel mode if contended.
func (l *KLock) Lock(t *Thread) {
	for {
		if l.word.Load() == 0 {
			// Check-and-set is atomic here: the simulation runs exactly
			// one thread between scheduling points.
			l.word.Store(1)
			l.holder = t
			return
		}
		t.spinKernel(l.free, l.sig)
	}
}

// Unlock releases the lock. The caller must hold it.
func (l *KLock) Unlock(t *Thread) {
	if l.holder != t {
		panic("sched: KLock.Unlock by non-holder")
	}
	l.holder = nil
	l.word.Store(0)
}

// Contended reports whether the lock is currently held.
func (l *KLock) Contended() bool {
	return l.word.Load() == 1
}
