// Package runner orchestrates fleets of independent simulation runs.
//
// Every run in this repo is a pure function of its configuration: the
// workload layer constructs a fresh engine and kernel per run (DESIGN.md
// §5), so runs share no state and can execute on any OS thread in any
// order. The runner exploits exactly that: a work-stealing worker pool
// fans runs out across GOMAXPROCS threads, and results are merged back in
// submission order, so parallel output is byte-identical to serial output.
//
// Failure isolation is part of the contract: a run that panics produces a
// failed Result (never a dead process), and cancelling the submission
// context fails queued runs without starting them.
//
// The companion Reporter (report.go) prints fleet progress heartbeats to
// stderr.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is the Err of a Result whose job panicked. The panic is
// confined to the job: the worker, the pool, and every other job proceed.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error describes the captured panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v", e.Value)
}

// IsPanic reports whether err records a captured job panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// Job is one independent unit of work.
type Job struct {
	// Label names the job in heartbeats and failure reports.
	Label string
	// Fn computes the job's value. It runs on an arbitrary pool thread
	// and must not share mutable state with other jobs.
	Fn func(ctx context.Context) (any, error)
}

// Result is one job's outcome. Map returns Results indexed by submission
// order regardless of completion order — the deterministic-merge contract.
type Result struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Label echoes Job.Label.
	Label string
	// Value is Fn's return value (nil on failure).
	Value any
	// Err is nil on success; otherwise Fn's error, a *PanicError, or the
	// cancelled submission context's error.
	Err error
	// Elapsed is the job's host wall-clock time.
	Elapsed time.Duration
}

// task is one scheduled job instance.
type task struct {
	job     Job
	batch   *batch
	index   int
	claimed atomic.Bool
	started time.Time
}

// batch collects the results of one Map call.
type batch struct {
	ctx       context.Context
	results   []Result
	remaining atomic.Int64
	done      chan struct{}
}

func (b *batch) finish(i int, r Result) {
	b.results[i] = r
	if b.remaining.Add(-1) == 0 {
		close(b.done)
	}
}

// Pool is a work-stealing worker pool for independent jobs.
//
// New(n) sizes the pool for n concurrent executors: n-1 background workers
// plus the caller, who participates whenever it waits (Map claims and runs
// its own batch's pending tasks inline; Future.Wait claims and runs an
// unstarted job inline). New(1) therefore starts no workers at all and
// executes every job serially on the waiting goroutine, in claim order —
// which is what makes `-jobs 1` a true serial baseline.
//
// Each worker owns a deque; submission deals tasks round-robin across the
// deques, a worker pops its own deque LIFO and steals FIFO from the others
// when empty. Because every waiter claims unstarted work inline, nested
// fan-out — a pooled job that itself submits sub-jobs on the same pool —
// can never deadlock: every claimed task is run immediately by its claimer.
type Pool struct {
	nworkers int

	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]*task
	next   int
	closed bool
	wg     sync.WaitGroup

	statsMu sync.Mutex
	running map[*task]struct{}
	queued  int
	done    int

	started time.Time
	simNS   atomic.Int64
}

// New builds a pool sized for n concurrent executors (n <= 0 means
// GOMAXPROCS): n-1 background workers plus the participating waiter, so
// New(1) runs everything serially on the waiting goroutine.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		nworkers: n,
		deques:   make([][]*task, n),
		running:  make(map[*task]struct{}),
		started:  time.Now(), //simlint:allow walltime -- heartbeat throughput baseline, never a simulation input
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go p.worker(i)
	}
	return p
}

// Workers returns the pool's concurrency (background workers + caller).
func (p *Pool) Workers() int { return p.nworkers }

// ReportSim adds ns simulated nanoseconds to the pool's cumulative
// throughput counter; the Reporter heartbeat divides it by pool uptime.
// Job bodies call it with their run's simulated span once the run
// completes.
func (p *Pool) ReportSim(ns int64) {
	if ns > 0 {
		p.simNS.Add(ns)
	}
}

// Close stops the workers once their queues drain. Jobs already submitted
// still complete; submitting after Close panics.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Map runs jobs on the pool and returns their results in submission order.
// The calling goroutine participates in execution, so Map may be called
// from inside a pooled job. A cancelled ctx fails jobs that have not
// started; jobs already running observe the cancellation through their
// context.
func (p *Pool) Map(ctx context.Context, jobs []Job) []Result {
	if len(jobs) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	b := &batch{
		ctx:     ctx,
		results: make([]Result, len(jobs)),
		done:    make(chan struct{}),
	}
	b.remaining.Store(int64(len(jobs)))
	tasks := make([]*task, len(jobs))
	for i, j := range jobs {
		tasks[i] = &task{job: j, batch: b, index: i}
	}
	p.submit(tasks)
	// Caller-runs: claim this batch's still-pending tasks in order and
	// execute them inline while the workers steal the rest concurrently.
	for _, t := range tasks {
		if t.claimed.CompareAndSwap(false, true) {
			p.runClaimed(t)
		}
	}
	<-b.done
	return b.results
}

// Future is a handle to one submitted job's eventual Result.
type Future struct {
	p *Pool
	t *task
}

// Submit enqueues one job for execution and returns its Future (nil ctx
// means Background). Cancelling ctx fails the job if it has not started;
// a job already running observes the cancellation through its context.
func (p *Pool) Submit(ctx context.Context, job Job) *Future {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &batch{
		ctx:     ctx,
		results: make([]Result, 1),
		done:    make(chan struct{}),
	}
	b.remaining.Store(1)
	t := &task{job: job, batch: b}
	p.submit([]*task{t})
	return &Future{p: p, t: t}
}

// Wait returns the job's Result, executing the job inline first if no
// worker has claimed it yet — waiting from inside another pooled job can
// therefore never deadlock, and a 1-wide pool degenerates to lazy serial
// evaluation in Wait order.
func (f *Future) Wait() Result {
	if f.t.claimed.CompareAndSwap(false, true) {
		f.p.runClaimed(f.t)
	}
	<-f.t.batch.done
	return f.t.batch.results[0]
}

// submit deals tasks round-robin across the worker deques.
func (p *Pool) submit(tasks []*task) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("runner: submit on closed pool")
	}
	for _, t := range tasks {
		d := p.next % p.nworkers
		p.next++
		p.deques[d] = append(p.deques[d], t)
	}
	p.statsMu.Lock()
	p.queued += len(tasks)
	p.statsMu.Unlock()
	p.cond.Broadcast()
}

// worker is one pool thread: pop own deque, steal from the others, sleep
// when everything is empty.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		t := p.take(id)
		if t == nil {
			return
		}
		if t.claimed.CompareAndSwap(false, true) {
			p.runClaimed(t)
		}
	}
}

// take returns the next task for worker id, blocking until one is
// available or the pool closes (nil). Returned tasks may already be
// claimed by Map's caller-runs loop; the worker just discards those.
func (p *Pool) take(id int) *task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		// Own deque: newest first (LIFO keeps a worker on the batch it
		// is already running, which keeps sibling jobs' caches warm).
		if d := p.deques[id]; len(d) > 0 {
			t := d[len(d)-1]
			p.deques[id] = d[:len(d)-1]
			return t
		}
		// Steal: oldest first from the next non-empty victim.
		for off := 1; off < p.nworkers; off++ {
			v := (id + off) % p.nworkers
			if d := p.deques[v]; len(d) > 0 {
				t := d[0]
				p.deques[v] = d[1:]
				return t
			}
		}
		if p.closed {
			return nil
		}
		p.cond.Wait()
	}
}

// runClaimed executes a task the caller has successfully claimed and
// delivers its Result to the batch.
func (p *Pool) runClaimed(t *task) {
	t.started = time.Now() //simlint:allow walltime -- host elapsed metric for Result.Elapsed, never a simulation input
	p.statsMu.Lock()
	p.queued--
	p.running[t] = struct{}{}
	p.statsMu.Unlock()

	r := p.exec(t)
	r.Index = t.index
	r.Label = t.job.Label
	r.Elapsed = time.Since(t.started) //simlint:allow walltime -- host elapsed metric for Result.Elapsed, never a simulation input

	p.statsMu.Lock()
	delete(p.running, t)
	p.done++
	p.statsMu.Unlock()
	t.batch.finish(t.index, r)
}

// exec runs the job body on the calling goroutine, capturing a panic as
// the job's failed Result.
func (p *Pool) exec(t *task) (r Result) {
	ctx := t.batch.ctx
	if err := ctx.Err(); err != nil {
		return Result{Err: err}
	}
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			r = Result{Err: &PanicError{Value: v, Stack: buf}}
		}
	}()
	v, err := t.job.Fn(ctx)
	return Result{Value: v, Err: err}
}

// Stats is a point-in-time snapshot of pool activity for heartbeats.
type Stats struct {
	// Queued, Running, and Done count jobs by state.
	Queued, Running, Done int
	// Slowest labels the longest-running in-flight job ("" if idle) and
	// SlowestFor is how long it has been running.
	Slowest    string
	SlowestFor time.Duration
	// SimNS is cumulative simulated nanoseconds completed (ReportSim) and
	// Uptime the host time since the pool started; their ratio is the
	// fleet's simulation throughput.
	SimNS  int64
	Uptime time.Duration
}

// Stats snapshots the pool's current activity.
func (p *Pool) Stats() Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	s := Stats{Queued: p.queued, Running: len(p.running), Done: p.done, SimNS: p.simNS.Load()}
	now := time.Now() //simlint:allow walltime -- heartbeat watchdog measures host time, not simulation state
	s.Uptime = now.Sub(p.started)
	for t := range p.running {
		if d := now.Sub(t.started); d > s.SlowestFor {
			s.SlowestFor = d
			s.Slowest = t.job.Label
		}
	}
	return s
}
