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
	nice     int
	weight   int64  // CFS load weight derived from nice
	node     rqNode // runqueue linkage (nil when not queued)

	// Policy ordering keys beyond vruntime. deadline is the EDF absolute
	// deadline, refreshed from relDeadline at each wakeup; arrivalSeq is the
	// shinjuku FIFO stamp assigned at each enqueue. Unused keys stay zero.
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

// niceToWeight is the kernel's sched_prio_to_weight table for nice levels
// -20..19; each step is ~1.25x.
var niceToWeight = [40]int64{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

// SetNice sets the thread's nice level (-20..19, clamped). Lower nice
// means more weight: the thread's virtual runtime advances more slowly, so
// CFS grants it a proportionally larger CPU share.
func (t *Thread) SetNice(n int) {
	if n < -20 {
		n = -20
	}
	if n > 19 {
		n = 19
	}
	t.nice = n
	t.weight = niceToWeight[n+20]
}

// Nice returns the thread's nice level.
func (t *Thread) Nice() int { return t.nice }

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

// loadWeight returns the CFS weight (1024 at nice 0).
func (t *Thread) loadWeight() int64 {
	if t.weight == 0 {
		return 1024
	}
	return t.weight
}

// scaleByWeight converts consumed CPU time into vruntime advance.
func (t *Thread) scaleByWeight(d sim.Duration) sim.Duration {
	w := t.loadWeight()
	if w == 1024 {
		return d
	}
	return sim.Duration(int64(d) * 1024 / w)
}

// Lifetime returns how long the thread existed (spawn to exit, or to now).
func (t *Thread) Lifetime() sim.Duration {
	end := t.exitTime
	if t.state != StateExited {
		end = t.k.eng.Now()
	}
	return end.Sub(t.spawnTime)
}

// park hands the request to the kernel and suspends the body until the
// request is complete.
//
//simlint:hotpath
func (t *Thread) park(r request) {
	r.epoch = t.req.epoch + 1
	t.req = r
	t.k.applyDirective(t)
	t.proc.Park()
}

// Run consumes d of CPU time as ordinary computation. The kernel slices it
// across dispatches, charging context switches, warmup, and preemptions as
// they occur. Zero or negative d returns immediately.
func (t *Thread) Run(d sim.Duration) {
	if d <= 0 {
		return
	}
	t.park(request{kind: reqRun, remaining: d})
}

// RunTight consumes d of CPU time in a loop that is architecturally
// indistinguishable from spinning (identical backward branches, no misses).
// Rare phases like this in real programs are BWD's false-positive source.
func (t *Thread) RunTight(d sim.Duration, iterNS float64) {
	if d <= 0 {
		return
	}
	t.park(request{kind: reqTight, remaining: d, loopIter: iterNS})
}

// SpinUntil busy-waits until cond() is true. cond must depend only on
// simulation state changed through Word mutations (or other code that calls
// Kernel.Kick), or the spin may never terminate. The spin burns CPU, fills
// the LBR with sig's backward branch, and is what BWD hunts.
func (t *Thread) SpinUntil(cond func() bool, sig hw.SpinSig) {
	if cond() {
		return
	}
	t.park(request{kind: reqSpin, cond: cond, sig: sig})
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
	t.park(request{kind: reqSpin, cond: cond, sig: sig, deadline: deadline})
	return cond()
}

// spinKernel is SpinUntil for kernel-internal locks: exempt from BWD, since
// real kernel spinlocks run with preemption disabled and are short.
func (t *Thread) spinKernel(cond func() bool, sig hw.SpinSig) {
	if cond() {
		return
	}
	t.park(request{kind: reqSpin, cond: cond, sig: sig, kernSpin: true})
}

// RunKernel consumes CPU inside a kernel critical section: the thread is
// not preemptible while it runs (real kernels disable preemption under
// runqueue and hash-bucket locks, avoiding lock-holder preemption).
func (t *Thread) RunKernel(d sim.Duration) {
	if d <= 0 {
		return
	}
	t.park(request{kind: reqRun, remaining: d, noPreempt: true})
}

// Yield releases the CPU voluntarily; the thread stays runnable behind its
// peers at the same vruntime.
func (t *Thread) Yield() {
	t.park(request{kind: reqYield})
}

// Sleep blocks the thread for d of virtual time.
func (t *Thread) Sleep(d sim.Duration) {
	if d <= 0 {
		return
	}
	t.park(request{kind: reqSleep, sleep: d})
}

// Block performs the vanilla sleep transition: the caller must already be
// registered on some wait queue whose waker will call Kernel.WakeVanilla
// (or a higher-level wrapper). The call returns when the thread is woken
// and dispatched again.
func (t *Thread) Block() {
	t.park(request{kind: reqBlock})
}

// BlockReason is Block with a reason tag (BlockFutex, BlockIO, ...) that
// rides on the "block" trace event for blame attribution.
func (t *Thread) BlockReason(reason int64) {
	t.park(request{kind: reqBlock, blockArg: reason})
}

// VBlock performs virtual blocking: thread_state is set and the thread is
// parked at the runqueue tail, never leaving the runqueue. The call returns
// after Kernel.VWake clears the flag and the thread is dispatched.
func (t *Thread) VBlock() {
	t.park(request{kind: reqVBlock})
}

// String identifies the thread in diagnostics.
func (t *Thread) String() string {
	if t.Name != "" {
		return fmt.Sprintf("%s#%d", t.Name, t.ID)
	}
	return fmt.Sprintf("thread#%d", t.ID)
}

// reqKindNames names request kinds for diagnostics, indexed by reqKind.
var reqKindNames = [...]string{
	reqNew: "new", reqRun: "run", reqTight: "tight", reqSpin: "spin",
	reqYield: "yield", reqBlock: "block", reqVBlock: "vblock", reqSleep: "sleep",
}

// DebugState describes the thread's scheduler state and pending request,
// for diagnostics and tests.
func (t *Thread) DebugState() string {
	return fmt.Sprintf("%v/%s rem=%v cpu=%d vr=%v kern=%v noPre=%v skip=%d",
		t.state, reqKindNames[t.req.kind], t.req.remaining, t.cpu, t.vruntime,
		t.req.kernSpin, t.req.noPreempt, t.skipUntil)
}
