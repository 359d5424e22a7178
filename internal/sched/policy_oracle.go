package sched

import "oversub/internal/sim"

// oracleLongKey sorts non-compute requests (spins, directives, fresh
// threads) after every finite remaining-work key, so the oracle never lets
// a busy-waiter starve the thread it is waiting on.
const oracleLongKey = sim.Duration(1) << 62

// oraclePolicy is an idealized upper bound: shortest-remaining-processing-
// time ordering using the simulator's ground truth (the exact remaining
// CPU demand of each thread's pending request — information no real
// scheduler has). Threads whose pending request is not timed compute sort
// last under a shared sentinel key, ordered FIFO among themselves by a
// fresh arrival stamp per enqueue — a static ID tiebreak would let the
// lowest-ID busy-waiter monopolize a CPU across slice expiries (its key
// never grows the way vruntime does), starving the thread it waits on.
// Keys are stable while a thread is queued: request fields mutate only
// while the thread is current, off the tree, and the kernel stamps the
// arrival before the tree insert.
type oraclePolicy struct{}

// oracleKey tiers the queue: threads whose pending request is a consumed
// directive (fresh spawns, wakes from block/sleep, yields) have not yet
// revealed their next demand — dispatch them immediately (key 0) so the
// oracle learns it, which is also what minimizes wake-to-dispatch latency.
// Timed compute sorts by exact remaining demand (SRPT). Busy-waiters sort
// last: they make no progress of their own and must never starve the
// thread whose flag they poll.
func oracleKey(t *Thread) sim.Duration {
	switch t.req.kind {
	case reqRun, reqTight:
		return t.req.remaining
	case reqSpin:
		return oracleLongKey
	case reqNew, reqYield, reqBlock, reqVBlock, reqSleep:
		return 0
	}
	return 0
}

func (oraclePolicy) Less(a, b *Thread) bool {
	ka, kb := oracleKey(a), oracleKey(b)
	if ka != kb {
		return ka < kb
	}
	return a.arrivalSeq < b.arrivalSeq
}

func (oraclePolicy) Tick(c *cpu, t *Thread) sim.Duration { return c.k.fairSlice(c) }

func (oraclePolicy) WakePreempts(c *cpu, curr, t *Thread, gran sim.Duration) bool {
	return oracleKey(t) < oracleKey(curr)
}
