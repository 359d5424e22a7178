// Package omp is an OpenMP-style fork-join runtime over the simulated
// kernel: a persistent worker team that sleeps between parallel regions
// and work-sharing loops with static, dynamic, and guided scheduling.
//
// It exists for two reasons. First, the NPB programs the paper evaluates
// are OpenMP codes, so a faithful workload layer wants OpenMP idioms.
// Second, the paper's introduction discusses exactly this structure as the
// alternative to oversubscription ("OpenMP separately determines the
// number of threads for each parallel region... dynamic threading requires
// that workloads be dynamically distributed to threads"): a Team makes the
// comparison concrete — its workers block in the kernel between regions,
// paying the very sleep/wakeup path virtual blocking repairs.
package omp

import (
	"fmt"

	"oversub/internal/futex"
	"oversub/internal/locks"
	"oversub/internal/sched"
)

// Schedule selects the work-sharing discipline of a parallel for.
type Schedule int

const (
	// Static divides the iteration space into equal contiguous ranges.
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks from a shared counter.
	Dynamic
	// Guided hands out geometrically shrinking chunks.
	Guided
)

// String names the schedule as in an OpenMP clause.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return "?"
}

// region is one published parallel-for descriptor.
type region struct {
	low, high int
	chunk     int
	sched     Schedule
	body      func(t *sched.Thread, worker, i int)
	next      *sched.Word // dynamic/guided progress counter
	remaining int         // workers that have not finished the region
}

// Team is a persistent group of worker threads executing parallel regions
// on behalf of a master thread. Workers sleep on a condition variable
// between regions, as OpenMP runtimes park their pool.
type Team struct {
	k       *sched.Kernel
	n       int
	mu      *locks.Mutex
	cond    *locks.Cond
	doneBar *locks.Barrier

	epoch   uint64
	current *region
	stop    bool
}

// NewTeam spawns n-1 worker threads (the master participates as worker 0)
// and returns the team. Shutdown must be called to let the workers exit.
func NewTeam(tbl *futex.Table, n int) *Team {
	if n < 1 {
		n = 1
	}
	tm := &Team{
		k:       tbl.Kernel(),
		n:       n,
		mu:      locks.NewMutex(tbl),
		cond:    locks.NewCond(tbl),
		doneBar: locks.NewBarrier(tbl, n),
	}
	for w := 1; w < n; w++ {
		w := w
		tm.k.Spawn(fmt.Sprintf("omp-worker-%d", w), func(t *sched.Thread) {
			tm.workerLoop(t, w)
		})
	}
	return tm
}

// workerLoop waits for regions and executes the worker's share of each.
func (tm *Team) workerLoop(t *sched.Thread, worker int) {
	epoch := uint64(0)
	for {
		tm.mu.Lock(t)
		for tm.epoch == epoch && !tm.stop {
			tm.cond.Wait(t, tm.mu)
		}
		if tm.stop {
			tm.mu.Unlock(t)
			return
		}
		epoch = tm.epoch
		r := tm.current
		tm.mu.Unlock(t)

		tm.runShare(t, worker, r)
		tm.doneBar.Await(t)
	}
}

// runShare executes worker's portion of the region.
func (tm *Team) runShare(t *sched.Thread, worker int, r *region) {
	switch r.sched {
	case Static:
		total := r.high - r.low
		per := (total + tm.n - 1) / tm.n
		lo := r.low + worker*per
		hi := lo + per
		if hi > r.high {
			hi = r.high
		}
		for i := lo; i < hi; i++ {
			r.body(t, worker, i)
		}
	case Dynamic:
		for {
			start := int(r.next.Add(uint64(r.chunk))) - r.chunk
			if start >= r.high {
				return
			}
			end := start + r.chunk
			if end > r.high {
				end = r.high
			}
			for i := start; i < end; i++ {
				r.body(t, worker, i)
			}
		}
	case Guided:
		for {
			cur := int(r.next.Load())
			if cur >= r.high {
				return
			}
			take := (r.high - cur) / (2 * tm.n)
			if take < r.chunk {
				take = r.chunk
			}
			start := int(r.next.Add(uint64(take))) - take
			if start >= r.high {
				return
			}
			end := start + take
			if end > r.high {
				end = r.high
			}
			for i := start; i < end; i++ {
				r.body(t, worker, i)
			}
		}
	}
}

// ParallelFor runs body(i) for i in [low, high) across the team, called
// from the master thread, which participates as worker 0 and returns when
// the whole region is complete (the implicit end-of-region barrier).
func (tm *Team) ParallelFor(t *sched.Thread, low, high, chunk int, schedKind Schedule, body func(t *sched.Thread, worker, i int)) {
	if high <= low {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	r := &region{
		low: low, high: high, chunk: chunk, sched: schedKind, body: body,
		next: tm.k.NewWord(uint64(low)),
	}
	tm.mu.Lock(t)
	tm.current = r
	tm.epoch++
	tm.cond.Broadcast(t)
	tm.mu.Unlock(t)

	tm.runShare(t, 0, r)
	tm.doneBar.Await(t)
}

// Shutdown releases the workers; it must be called from the master thread
// after the last region.
func (tm *Team) Shutdown(t *sched.Thread) {
	tm.mu.Lock(t)
	tm.stop = true
	tm.cond.Broadcast(t)
	tm.mu.Unlock(t)
}
