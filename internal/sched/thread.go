package sched

import (
	"fmt"

	"oversub/internal/hw"
	"oversub/internal/mem"
	"oversub/internal/sim"
)

// State is a thread's scheduler state.
type State int

const (
	// StateNew is a spawned thread that has not run yet.
	StateNew State = iota
	// StateRunnable means on a runqueue, waiting for CPU.
	StateRunnable
	// StateRunning means currently on a CPU.
	StateRunning
	// StateSleeping means off the runqueue (vanilla blocking or timed sleep).
	StateSleeping
	// StateExited means the thread body returned.
	StateExited
)

// String names the state for diagnostics.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateExited:
		return "exited"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

type reqKind int

const (
	reqNew    reqKind = iota // freshly spawned; first dispatch starts the body
	reqRun                   // consume CPU time (ordinary compute)
	reqTight                 // consume CPU time looking like a tight loop
	reqSpin                  // busy-wait until a condition holds
	reqYield                 // voluntarily release the CPU, stay runnable
	reqBlock                 // vanilla sleep (caller is on some wait queue)
	reqVBlock                // virtual blocking (thread_state set)
	reqSleep                 // timed sleep
)

// request is the pending kernel request of a thread. Directives (yield,
// block, vblock, sleep) take effect when the thread parks; timed requests
// (run, tight, spin) are served across dispatches until complete.
type request struct {
	kind       reqKind
	remaining  sim.Duration // reqRun, reqTight
	cond       func() bool  // reqSpin
	sig        hw.SpinSig   // reqSpin
	kernSpin   bool         // reqSpin issued by kernel lock internals (BWD-exempt)
	noPreempt  bool         // reqRun inside a kernel critical section
	sleep      sim.Duration // reqSleep
	deadline   sim.Time     // reqSpin: give up spinning at this time (0 = never)
	epoch      uint64       // guards stale completion events
	loopIter   float64      // reqTight: ns per loop iteration
	completing bool         // reqSpin: a completion event is in flight
	blockArg   int64        // reqBlock: reason tag carried in the trace event
}

// Block reasons, carried in the Arg of "block" trace events so blame
// attribution can split futex/lock waits from other sleeps. They mirror
// trace.BlockReasonOther/Futex/IO (the trace package owns the Arg
// taxonomy; this package cannot import it).
const (
	BlockOther int64 = iota
	BlockFutex
	BlockIO
)

// Thread is a simulated kernel thread.
type Thread struct {
	// ID is unique per kernel; Name is for diagnostics.
	ID   int
	Name string

	// Footprint drives the per-switch cache/TLB warmup penalty and, with
	// Profile, the architectural event rates during compute.
	Footprint mem.Footprint
	// Profile is the PMC footprint of this thread's compute phases.
	Profile hw.ExecProfile

	k    *Kernel
	proc *sim.Proc

	state    State
	cpu      int // current or last CPU
	pinned   int // -1 when not pinned
	vblocked bool
	// blockedKey orders virtually blocked threads behind each other at the
	// runqueue tail (FIFO among blocked).
	blockedKey uint64
	// skipUntil implements BWD's skip flag: the thread is not eligible
	// until the CPU's dispatch sequence passes this value.
	skipUntil uint64

	vruntime sim.Duration
	node     rqNode // runqueue linkage (nil when not queued)

	// Ordering keys beyond vruntime, kept by the kernel for every thread
	// whichever policy reads them. deadline is the EDF absolute deadline,
	// refreshed from relDeadline at each wakeup and postponed at an enqueue
	// that finds it expired; arrivalSeq is the kernel's arrival stamp,
	// assigned at each enqueue (shinjuku's FIFO, oracle's tiebreak).
	deadline    sim.Time
	relDeadline sim.Duration
	arrivalSeq  uint64

	req  request
	warm sim.Duration // pending cache/TLB warmup to charge at next segment

	// Statistics.
	CPUTime   sim.Duration
	VolCS     uint64
	InvolCS   uint64
	SpinTime  sim.Duration
	BWDHits   uint64
	exitTime  sim.Time
	spawnTime sim.Time
}

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.k }

// State returns the thread's scheduler state.
func (t *Thread) State() State { return t.state }

// CPU returns the CPU the thread is running on or last ran on.
func (t *Thread) CPU() int { return t.cpu }

// VBlocked reports whether the thread_state flag is set (virtual blocking).
func (t *Thread) VBlocked() bool { return t.vblocked }

// SetRelDeadline sets the thread's relative deadline: under the EDF policy
// each wakeup starts a period whose absolute deadline is the wake time plus
// d. Workloads derive d from their per-thread work interval
// (workload.Spec.Interval). Non-positive d restores the default
// (Costs.SchedLatency). Other policies ignore it.
func (t *Thread) SetRelDeadline(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	t.relDeadline = d
}

// Lifetime returns how long the thread existed (spawn to exit, or to now).
func (t *Thread) Lifetime() sim.Duration {
	end := t.exitTime
	if t.state != StateExited {
		end = t.k.eng.Now()
	}
	return end.Sub(t.spawnTime)
}

// park hands the current request to the kernel and suspends the body until
// the request is complete.
func (t *Thread) park() {
	t.k.applyDirective(t)
	t.proc.Park()
}

// newRequest makes a fresh request of the given kind the thread's current
// one, under a new epoch so completion events scheduled for an earlier
// request see they are stale, and returns it for the caller to fill in
// place.
func (t *Thread) newRequest(kind reqKind) *request {
	t.req = request{kind: kind, epoch: t.req.epoch + 1}
	return &t.req
}

// Run consumes d of CPU time as ordinary computation. The kernel slices it
// across dispatches, charging context switches, warmup, and preemptions as
// they occur. Zero or negative d returns immediately.
func (t *Thread) Run(d sim.Duration) {
	if d <= 0 {
		return
	}
	t.newRequest(reqRun).remaining = d
	t.compute()
}

// compute serves the current run or tight request: in place when its
// completion is the engine's next event, otherwise through the kernel's
// queued path.
func (t *Thread) compute() {
	if !t.k.runInPlace(t) {
		t.park()
	}
}

// RunTight consumes d of CPU time in a loop that is architecturally
// indistinguishable from spinning (identical backward branches, no misses).
// Rare phases like this in real programs are BWD's false-positive source.
func (t *Thread) RunTight(d sim.Duration, iterNS float64) {
	if d <= 0 {
		return
	}
	r := t.newRequest(reqTight)
	r.remaining, r.loopIter = d, iterNS
	t.compute()
}

// SpinUntil busy-waits until cond() is true. cond must depend only on
// simulation state changed through Word mutations (or other code that calls
// Kernel.Kick), or the spin may never terminate. The spin burns CPU, fills
// the LBR with sig's backward branch, and is what BWD hunts.
func (t *Thread) SpinUntil(cond func() bool, sig hw.SpinSig) {
	if cond() {
		return
	}
	r := t.newRequest(reqSpin)
	r.cond, r.sig = cond, sig
	t.park()
}

// SpinUntilDeadline busy-waits until cond() holds or the deadline passes,
// whichever comes first, and reports whether cond() held on return. It is
// the building block of spin-then-park locks (Mutexee, MCS-TP, SHFLLOCK).
func (t *Thread) SpinUntilDeadline(cond func() bool, sig hw.SpinSig, deadline sim.Time) bool {
	if cond() {
		return true
	}
	if t.k.eng.Now() >= deadline {
		return false
	}
	r := t.newRequest(reqSpin)
	r.cond, r.sig, r.deadline = cond, sig, deadline
	t.park()
	return cond()
}

// spinKernel is SpinUntil for kernel-internal locks: exempt from BWD, since
// real kernel spinlocks run with preemption disabled and are short.
func (t *Thread) spinKernel(cond func() bool, sig hw.SpinSig) {
	if cond() {
		return
	}
	r := t.newRequest(reqSpin)
	r.cond, r.sig, r.kernSpin = cond, sig, true
	t.park()
}

// RunKernel consumes CPU inside a kernel critical section: the thread is
// not preemptible while it runs (real kernels disable preemption under
// runqueue and hash-bucket locks, avoiding lock-holder preemption).
func (t *Thread) RunKernel(d sim.Duration) {
	if d <= 0 {
		return
	}
	r := t.newRequest(reqRun)
	r.remaining, r.noPreempt = d, true
	t.compute()
}

// Yield releases the CPU voluntarily; the thread stays runnable behind its
// peers at the same vruntime.
func (t *Thread) Yield() {
	t.newRequest(reqYield)
	t.park()
}

// Sleep blocks the thread for d of virtual time.
func (t *Thread) Sleep(d sim.Duration) {
	if d <= 0 {
		return
	}
	t.newRequest(reqSleep).sleep = d
	t.park()
}

// Block performs the vanilla sleep transition: the caller must already be
// registered on some wait queue whose waker will call Kernel.WakeVanilla
// (or a higher-level wrapper). The call returns when the thread is woken
// and dispatched again.
func (t *Thread) Block() {
	t.newRequest(reqBlock)
	t.park()
}

// BlockReason is Block with a reason tag (BlockFutex, BlockIO, ...) that
// rides on the "block" trace event for blame attribution.
func (t *Thread) BlockReason(reason int64) {
	t.newRequest(reqBlock).blockArg = reason
	t.park()
}

// VBlock performs virtual blocking: thread_state is set and the thread is
// parked at the runqueue tail, never leaving the runqueue. The call returns
// after Kernel.VWake clears the flag and the thread is dispatched.
func (t *Thread) VBlock() {
	t.newRequest(reqVBlock)
	t.park()
}

// String identifies the thread in diagnostics.
func (t *Thread) String() string {
	if t.Name != "" {
		return fmt.Sprintf("%s#%d", t.Name, t.ID)
	}
	return fmt.Sprintf("thread#%d", t.ID)
}
