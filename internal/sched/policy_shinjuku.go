package sched

import "oversub/internal/sim"

// shinjukuQuantum is the fixed microsecond-scale preemption quantum.
// Shinjuku (NSDI '19) showed that preempting at ~5 µs — two orders of
// magnitude below CFS's millisecond granularity — bounds the head-of-line
// blocking short requests suffer behind long ones.
const shinjukuQuantum = 5 * sim.Microsecond

// shinjukuPolicy approximates Shinjuku-style centralized µs-scale
// scheduling in the per-CPU-runqueue frame of this kernel: the queue is
// FIFO by arrival (the kernel's per-enqueue arrival stamp, so a preempted
// thread goes to the tail rather than resuming immediately, and steals
// keep arrival-time affinity), the quantum is a fixed 5 µs regardless of
// queue depth, and wakeups never preempt — the tiny quantum already bounds
// waiting time, which is the mechanism the real system relies on instead
// of wakeup heuristics.
type shinjukuPolicy struct{}

func (shinjukuPolicy) Less(a, b *Thread) bool { return a.arrivalSeq < b.arrivalSeq }

// Tick grants the fixed quantum of on-CPU time. The pending dispatch
// overhead (context switch plus cache warmup) is added on top: with
// millisecond-free 5 µs quanta the overhead alone can exceed the quantum,
// and a slice that expires inside the warmup segment would requeue the
// thread having done no work at all — every thread thrashing in turn,
// forever. Real Shinjuku sidesteps this with ~100 ns switches; this
// simulator charges full CFS-grade switch costs.
func (shinjukuPolicy) Tick(c *cpu, t *Thread) sim.Duration {
	return shinjukuQuantum + c.overhead
}

func (shinjukuPolicy) WakePreempts(c *cpu, curr, t *Thread, gran sim.Duration) bool {
	return false
}
