package sched

import "oversub/internal/sim"

// policy is the pluggable scheduling discipline of a kernel: the three
// choices in which the registered policies differ. Everything else is
// kernel mechanism, the same under every policy — runqueue storage, the
// leftmost pick that honours BWD skip flags, the rightmost steal, the wake
// target CPU, virtual-blocking flags and their FIFO tail ordering,
// vruntime accounting, sleeper-bonus clamps, migration rebasing, and the
// ordering keys a policy may read (vruntime, the EDF deadline and the
// arrival stamp, all kept for every thread).
//
// Determinism obligations: a policy must be a pure function of committed
// simulation state. It must not read wall-clock time, use any RNG other
// than the kernel's, or carry state of its own (one instance serves every
// kernel, and kernels run concurrently in runner pools). Less runs on
// every runqueue insert, Tick on every dispatch and WakePreempts on every
// wake; TestSteadyStateZeroAlloc pins them at 0 allocations for every
// registered policy.
//
// Ordering-key stability: Less is consulted by the runqueue rbtree, so any
// field it reads (vruntime, deadline, arrivalSeq, request remaining) must
// stay constant while the thread is queued. The kernel changes keys only
// before the tree insert (Kernel.enqueue, the wake paths) or while the
// thread is current (off the tree).
type policy interface {
	// Less orders two runnable (non-vblocked) threads; the kernel wraps it
	// with the VB tail ordering and a thread-ID tiebreak, so implementations
	// need only compare their primary key.
	Less(a, b *Thread) bool
	// Tick returns the time slice for freshly dispatched t on c.
	Tick(c *cpu, t *Thread) sim.Duration
	// WakePreempts reports whether freshly enqueued t should preempt curr
	// on c under wakeup granularity gran.
	WakePreempts(c *cpu, curr, t *Thread, gran sim.Duration) bool
}

// namedPolicy is a registry entry: a policy under its registry name.
type namedPolicy struct {
	name string
	policy
}

// policies is the registry, in presentation order; its first entry is the
// default.
var policies = [...]namedPolicy{
	{"cfs", cfsPolicy{}},
	{"edf", edfPolicy{}},
	{"shinjuku", shinjukuPolicy{}},
	{"oracle", oraclePolicy{}},
}

// PolicyNames returns the registered policy names in stable order.
func PolicyNames() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.name
	}
	return out
}

// ValidPolicy reports whether name is a registered policy ("" selects the
// default, cfs).
func ValidPolicy(name string) bool {
	_, ok := lookupPolicy(name)
	return ok
}

// lookupPolicy returns the policy registered under name ("" selects the
// default).
func lookupPolicy(name string) (policy, bool) {
	if name == "" {
		return policies[0].policy, true
	}
	for _, p := range policies {
		if p.name == name {
			return p.policy, true
		}
	}
	return nil, false
}

// PolicyName returns the name of the kernel's active scheduling policy.
// Every policy is an empty struct of its own type, so the registry entry
// is the one whose value equals the kernel's.
func (k *Kernel) PolicyName() string {
	for _, p := range policies {
		if p.policy == k.policy {
			return p.name
		}
	}
	panic("sched: kernel policy not in the registry")
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
