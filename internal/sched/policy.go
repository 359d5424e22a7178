package sched

import "oversub/internal/sim"

// Policy is the pluggable scheduling discipline of a kernel. The kernel owns
// every *mechanism* — runqueue storage, virtual-blocking flags and their
// FIFO tail ordering, BWD skip flags, vruntime accounting, sleeper-bonus
// clamps, migration rebasing, and blocked-thread bookkeeping — while the
// policy owns every *choice*: queue order among runnable threads, which
// thread runs next, how long its slice is, which CPU receives a wakeup,
// whether a wakeup preempts, and which thread a load balancer steals.
//
// Determinism obligations: a Policy implementation must be a pure function
// of committed simulation state. It must not read wall-clock time, use any
// RNG other than the kernel's, retain cross-kernel shared state (the
// registry builds a fresh instance per kernel so concurrent runner jobs
// never share one), or allocate on the hot paths (PickNext, Less, Tick,
// Enqueue, Dequeue, Woken, WakePreempts, StealCandidate run on every
// dispatch, wake or steal; TestSteadyStateZeroAlloc pins them at 0
// allocations for every registered policy).
//
// Ordering-key stability: Less is consulted by the runqueue rbtree, so any
// field it reads (vruntime, deadline, arrivalSeq, request remaining) must
// stay constant while the thread is queued. Keys may only change in the
// Enqueue/Woken hooks (which run before tree insertion) or while the thread
// is current (off the tree).
type Policy interface {
	// Name returns the registry name ("cfs", "edf", ...).
	Name() string
	// Less orders two runnable (non-vblocked) threads; the kernel wraps it
	// with the VB tail ordering and a thread-ID tiebreak, so implementations
	// need only compare their primary key.
	Less(a, b *Thread) bool
	// PickNext returns the next thread to dispatch on c, honouring BWD skip
	// flags, or nil if only virtually blocked (or no) threads remain. Most
	// policies order the tree via Less and return pickLeftmost(c).
	PickNext(c *cpu) *Thread
	// Enqueue runs before t is inserted into c's tree: the hook where
	// arrival-ordering keys are assigned.
	Enqueue(c *cpu, t *Thread)
	// Dequeue runs after t is removed from its tree.
	Dequeue(c *cpu, t *Thread)
	// Woken runs when t is about to become runnable after a sleep, a VWake,
	// or its initial spawn — before the kernel's vruntime clamps and the
	// tree insert. Deadline-based policies refresh the absolute deadline
	// here.
	Woken(c *cpu, t *Thread)
	// Tick returns the time slice for freshly dispatched t on c.
	Tick(c *cpu, t *Thread) sim.Duration
	// WakeTarget selects the CPU that receives sleeping thread t's wakeup.
	WakeTarget(t *Thread) int
	// WakePreempts reports whether freshly enqueued t should preempt curr
	// on c under wakeup granularity gran.
	WakePreempts(c *cpu, curr, t *Thread, gran sim.Duration) bool
	// StealCandidate picks the thread a load balancer migrates away from c,
	// or nil. Virtually blocked and pinned threads are never candidates.
	StealCandidate(c *cpu) *Thread
}

// policyNames lists the registered policies in presentation order.
var policyNames = [...]string{"cfs", "edf", "shinjuku", "oracle"}

// PolicyNames returns the registered policy names in stable order.
func PolicyNames() []string {
	out := make([]string, len(policyNames))
	copy(out, policyNames[:])
	return out
}

// ValidPolicy reports whether name is a registered policy ("" selects the
// default, cfs).
func ValidPolicy(name string) bool {
	if name == "" {
		return true
	}
	for _, n := range policyNames {
		if n == name {
			return true
		}
	}
	return false
}

// newPolicy builds a fresh policy instance for kernel k. Instances are
// per-kernel, never shared: policies may carry mutable state (e.g. the
// shinjuku arrival sequence) and kernels run concurrently in runner pools.
func newPolicy(name string, k *Kernel) Policy {
	switch name {
	case "", "cfs":
		return &cfsPolicy{k: k}
	case "edf":
		return &edfPolicy{k: k}
	case "shinjuku":
		return &shinjukuPolicy{k: k}
	case "oracle":
		return &oraclePolicy{k: k}
	}
	panic("sched: unknown policy " + name)
}

// PolicyName returns the name of the kernel's active scheduling policy.
func (k *Kernel) PolicyName() string { return k.policy.Name() }

// pickLeftmost returns the first eligible thread in c's tree order,
// honouring BWD skip flags; nil if only virtually blocked (or no) threads
// remain. It is the PickNext shared by every tree-ordered policy.
func pickLeftmost(c *cpu) *Thread {
	var fallback *Thread
	for n := c.tree.Min(); n != nil; n = c.tree.Next(n) {
		t := n.Value
		if t.vblocked {
			break // blocked threads sort last; nothing eligible beyond
		}
		if t.skipUntil > c.dispatchSeq {
			if fallback == nil {
				fallback = t
			}
			continue
		}
		return t
	}
	return fallback
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

// defaultWakeTarget chooses the wakeup CPU for t the way CFS does: the
// pinned CPU, t's previous CPU if idle, or the idlest allowed CPU preferring
// t's node.
func (k *Kernel) defaultWakeTarget(t *Thread) int {
	if t.pinned >= 0 && k.cpus[t.pinned].enabled {
		return t.pinned
	}
	if prev := k.cpus[t.cpu]; prev.enabled && prev.curr == nil && prev.tree.Len() == 0 {
		return t.cpu
	}
	return k.idlestCPU(t.cpu)
}

// fairSlice is the CFS slice formula — the scheduling latency divided among
// eligible entities, floored at the minimum granularity — shared by every
// policy that keeps tick-driven preemption.
func (k *Kernel) fairSlice(c *cpu) sim.Duration {
	n := c.eligible()
	if n < 1 {
		n = 1
	}
	slice := k.costs.SchedLatency / sim.Duration(n)
	if slice < k.costs.MinGranularity {
		slice = k.costs.MinGranularity
	}
	return slice
}
