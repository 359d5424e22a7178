// Package locks implements the user-level synchronization zoo the paper
// evaluates against the simulated kernel:
//
//   - futex-based blocking primitives (pthread mutex, condition variable,
//     barrier, semaphore) — §4.2;
//   - the ten spinlocks of Figure 13 and Table 2 (TTAS, ticket, MCS, CLH,
//     ALock-LS, partitioned ticket, pthread spin, Malthusian, CNA, AQS);
//   - the spin-then-park algorithms of §4.4 (Mutexee, MCS-TP) and
//     SHFLLOCK.
//
// Every spin loop carries a distinct SpinSig (branch address, iteration
// latency, PAUSE usage), so busy-waiting detection sees each algorithm's
// real architectural signature; only the pthread spinlock executes PAUSE,
// which is why PLE detects nothing else.
package locks

import (
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// Locker is mutual exclusion usable by simulated threads.
type Locker interface {
	Name() string
	Lock(t *sched.Thread)
	Unlock(t *sched.Thread)
}

// CriticalCost is the bookkeeping cost charged inside lock fast paths
// (atomic RMW plus fence effects).
const CriticalCost = 25 * sim.Nanosecond

// spinLocks is the one table of the ten spinlocks of Figure 13 / Table 2,
// in the paper's order; each name is the one its lock's Name() returns.
var spinLocks = [...]struct {
	name string
	new  func(k *sched.Kernel) Spinner
}{
	{"alock-ls", func(k *sched.Kernel) Spinner { return NewALockLS(k, 64) }},
	{"clh", func(k *sched.Kernel) Spinner { return NewCLH(k) }},
	{"malth", func(k *sched.Kernel) Spinner { return NewMalthusian(k) }},
	{"mcs", func(k *sched.Kernel) Spinner { return NewMCS(k) }},
	{"partitioned", func(k *sched.Kernel) Spinner { return NewPartitioned(k, 8) }},
	{"pthread", func(k *sched.Kernel) Spinner { return NewPthreadSpin(k) }},
	{"ticket", func(k *sched.Kernel) Spinner { return NewTicket(k) }},
	{"ttas", func(k *sched.Kernel) Spinner { return NewTTAS(k) }},
	{"cna", func(k *sched.Kernel) Spinner { return NewCNA(k) }},
	{"aqs", func(k *sched.Kernel) Spinner { return NewAQS(k) }},
}

// NumSpinLocks is the number of spinlocks in the paper's set.
const NumSpinLocks = len(spinLocks)

// NewSpinLock builds the i-th spinlock of the paper's set on kernel k.
func NewSpinLock(i int, k *sched.Kernel) Spinner { return spinLocks[i].new(k) }

// SpinLockName names the i-th spinlock of the paper's set without building
// it.
func SpinLockName(i int) string { return spinLocks[i].name }

// SpinLockSet returns the ten spinlocks of Figure 13 / Table 2, in the
// paper's order: alock-ls, clh, malth, mcs, partitioned, pthread, ticket,
// ttas, cna, aqs.
func SpinLockSet(k *sched.Kernel) []Locker {
	out := make([]Locker, NumSpinLocks)
	for i := range out {
		out[i] = NewSpinLock(i, k)
	}
	return out
}
