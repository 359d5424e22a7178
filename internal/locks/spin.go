package locks

import (
	"sync/atomic"

	"oversub/internal/hw"
	"oversub/internal/sched"
)

// sigCounter is process-global (not per-run) so every lock's branch
// address is distinct; it must be atomic because independent simulation
// runs now construct locks concurrently (internal/runner). Results only
// depend on address *distinctness* within a run, never on the absolute
// value, so concurrent allocation order cannot perturb a run's outcome.
//
//simlint:allow sharedstate -- results depend only on signature distinctness, never on which run drew which value (the contract stated above); the counter is atomic, so concurrent runner jobs allocating locks cannot tear it
var sigCounter atomic.Uint64

// newSig allocates a distinct spin-loop signature (branch address pair).
func newSig(iterNS float64, pause bool) hw.SpinSig {
	return hw.NewSpinSig(0x400000+sigCounter.Add(1)*0x200, iterNS, pause)
}

// TTAS is the test-and-test-and-set lock: spin reading until free, then CAS.
type TTAS struct {
	w   *sched.Word
	sig hw.SpinSig
}

// NewTTAS allocates a TTAS lock on kernel k.
func NewTTAS(k *sched.Kernel) *TTAS {
	return &TTAS{w: k.NewWord(0), sig: newSig(5, false)}
}

// Name implements Locker.
func (l *TTAS) Name() string { return "ttas" }

// Lock implements Locker.
func (l *TTAS) Lock(t *sched.Thread) {
	for {
		t.Run(CriticalCost)
		if l.w.Load() == 0 && l.w.CAS(0, 1) {
			return
		}
		t.SpinUntil(func() bool { return l.w.Load() == 0 }, l.sig)
	}
}

// Unlock implements Locker.
func (l *TTAS) Unlock(t *sched.Thread) { l.w.Store(0) }

// PthreadSpin is pthread_spin_lock: a TTAS whose wait loop executes PAUSE,
// the only algorithm here that PLE/PF hardware can observe (Figure 6).
type PthreadSpin struct {
	w   *sched.Word
	sig hw.SpinSig
}

// NewPthreadSpin allocates a pthread spinlock.
func NewPthreadSpin(k *sched.Kernel) *PthreadSpin {
	return &PthreadSpin{w: k.NewWord(0), sig: newSig(8, true)}
}

// Name implements Locker.
func (l *PthreadSpin) Name() string { return "pthread" }

// Lock implements Locker.
func (l *PthreadSpin) Lock(t *sched.Thread) {
	for {
		t.Run(CriticalCost)
		if l.w.Load() == 0 && l.w.CAS(0, 1) {
			return
		}
		t.SpinUntil(func() bool { return l.w.Load() == 0 }, l.sig)
	}
}

// Unlock implements Locker.
func (l *PthreadSpin) Unlock(t *sched.Thread) { l.w.Store(0) }

// Ticket is the classic FIFO ticket lock; all waiters spin on one word.
type Ticket struct {
	next    *sched.Word
	serving *sched.Word
	sig     hw.SpinSig
}

// NewTicket allocates a ticket lock.
func NewTicket(k *sched.Kernel) *Ticket {
	return &Ticket{next: k.NewWord(0), serving: k.NewWord(0), sig: newSig(5, false)}
}

// Name implements Locker.
func (l *Ticket) Name() string { return "ticket" }

// Lock implements Locker.
func (l *Ticket) Lock(t *sched.Thread) {
	t.Run(CriticalCost)
	my := l.next.Add(1) - 1
	if l.serving.Load() == my {
		return
	}
	t.SpinUntil(func() bool { return l.serving.Load() == my }, l.sig)
}

// Unlock implements Locker.
func (l *Ticket) Unlock(t *sched.Thread) { l.serving.Add(1) }

// Partitioned is a partitioned ticket lock: grant visibility is spread over
// slots so waiters spin on distinct cache lines.
type Partitioned struct {
	next    *sched.Word
	slots   []*sched.Word // slot[i] holds the ticket currently granted in partition i
	sig     hw.SpinSig
	tickets map[*sched.Thread]uint64
}

// NewPartitioned allocates a partitioned ticket lock with n slots.
func NewPartitioned(k *sched.Kernel, n int) *Partitioned {
	if n <= 0 {
		n = 8
	}
	l := &Partitioned{next: k.NewWord(0), sig: newSig(5, false), tickets: make(map[*sched.Thread]uint64)}
	for i := 0; i < n; i++ {
		w := k.NewWord(0)
		l.slots = append(l.slots, w)
	}
	l.slots[0].Store(1) // ticket 0 may enter (stored as ticket+1)
	return l
}

// Name implements Locker.
func (l *Partitioned) Name() string { return "partitioned" }

// Lock implements Locker.
func (l *Partitioned) Lock(t *sched.Thread) {
	t.Run(CriticalCost)
	my := l.next.Add(1) - 1
	l.tickets[t] = my
	slot := l.slots[my%uint64(len(l.slots))]
	t.SpinUntil(func() bool { return slot.Load() == my+1 }, l.sig)
}

// Unlock implements Locker.
func (l *Partitioned) Unlock(t *sched.Thread) {
	grant := l.tickets[t] + 1
	delete(l.tickets, t)
	l.slots[grant%uint64(len(l.slots))].Store(grant + 1)
}

// ALockLS is Anderson's array lock with local spinning: each waiter spins
// on its own slot.
type ALockLS struct {
	tail    *sched.Word
	slots   []*sched.Word
	sig     hw.SpinSig
	tickets map[*sched.Thread]uint64
}

// NewALockLS allocates an array lock with n slots (n bounds concurrency).
func NewALockLS(k *sched.Kernel, n int) *ALockLS {
	if n <= 0 {
		n = 64
	}
	l := &ALockLS{tail: k.NewWord(0), sig: newSig(4, false), tickets: make(map[*sched.Thread]uint64)}
	for i := 0; i < n; i++ {
		l.slots = append(l.slots, k.NewWord(0))
	}
	l.slots[0].Store(1)
	return l
}

// Name implements Locker.
func (l *ALockLS) Name() string { return "alock-ls" }

// Lock implements Locker.
func (l *ALockLS) Lock(t *sched.Thread) {
	t.Run(CriticalCost)
	my := l.tail.Add(1) - 1
	l.tickets[t] = my
	slot := l.slots[my%uint64(len(l.slots))]
	t.SpinUntil(func() bool { return slot.Load() == 1 }, l.sig)
	slot.Store(0)
}

// Unlock implements Locker.
func (l *ALockLS) Unlock(t *sched.Thread) {
	my := l.tickets[t]
	delete(l.tickets, t)
	l.slots[(my+1)%uint64(len(l.slots))].Store(1)
}

// Spinner is a spinlock that exposes its wait-loop signature, used by the
// Table 2 sensitivity harness to generate each algorithm's exact
// architectural footprint.
type Spinner interface {
	Locker
	Sig() hw.SpinSig
}

// Sig implements Spinner.
func (l *TTAS) Sig() hw.SpinSig { return l.sig }

// Sig implements Spinner.
func (l *PthreadSpin) Sig() hw.SpinSig { return l.sig }

// Sig implements Spinner.
func (l *Ticket) Sig() hw.SpinSig { return l.sig }

// Sig implements Spinner.
func (l *Partitioned) Sig() hw.SpinSig { return l.sig }

// Sig implements Spinner.
func (l *ALockLS) Sig() hw.SpinSig { return l.sig }
