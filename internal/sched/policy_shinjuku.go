package sched

import "oversub/internal/sim"

// shinjukuQuantum is the fixed microsecond-scale preemption quantum.
// Shinjuku (NSDI '19) showed that preempting at ~5 µs — two orders of
// magnitude below CFS's millisecond granularity — bounds the head-of-line
// blocking short requests suffer behind long ones.
const shinjukuQuantum = 5 * sim.Microsecond

// shinjukuPolicy approximates Shinjuku-style centralized µs-scale
// scheduling in the per-CPU-runqueue frame of this kernel: the queue is
// FIFO by arrival (a per-policy monotone sequence stamped at enqueue, so a
// preempted thread goes to the tail rather than resuming immediately), the
// quantum is a fixed 5 µs regardless of queue depth, and wakeups never
// preempt — the tiny quantum already bounds waiting time, which is the
// mechanism the real system relies on instead of wakeup heuristics.
type shinjukuPolicy struct {
	k   *Kernel
	seq uint64
}

func (p *shinjukuPolicy) Name() string { return "shinjuku" }

func (p *shinjukuPolicy) Less(a, b *Thread) bool { return a.arrivalSeq < b.arrivalSeq }

func (p *shinjukuPolicy) PickNext(c *cpu) *Thread { return pickLeftmost(c) }

// Enqueue stamps the arrival sequence; the sequence is policy-global (one
// policy instance per kernel), which yields FIFO order within each queue
// and arrival-time affinity across steals.
func (p *shinjukuPolicy) Enqueue(c *cpu, t *Thread) {
	p.seq++
	t.arrivalSeq = p.seq
}

func (p *shinjukuPolicy) Dequeue(c *cpu, t *Thread) {}

func (p *shinjukuPolicy) Woken(c *cpu, t *Thread) {}

// Tick grants the fixed quantum of on-CPU time. The pending dispatch
// overhead (context switch plus cache warmup) is added on top: with
// millisecond-free 5 µs quanta the overhead alone can exceed the quantum,
// and a slice that expires inside the warmup segment would requeue the
// thread having done no work at all — every thread thrashing in turn,
// forever. Real Shinjuku sidesteps this with ~100 ns switches; this
// simulator charges full CFS-grade switch costs.
func (p *shinjukuPolicy) Tick(c *cpu, t *Thread) sim.Duration {
	return shinjukuQuantum + c.overhead
}

func (p *shinjukuPolicy) WakeTarget(t *Thread) int { return p.k.defaultWakeTarget(t) }

func (p *shinjukuPolicy) WakePreempts(c *cpu, curr, t *Thread, gran sim.Duration) bool {
	return false
}

func (p *shinjukuPolicy) StealCandidate(c *cpu) *Thread { return stealRightmost(c) }
