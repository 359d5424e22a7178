package workload

import (
	"fmt"

	"oversub/internal/bwd"
	"oversub/internal/futex"
	"oversub/internal/hw"
	"oversub/internal/locks"
	"oversub/internal/mem"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// CPUChange is a scheduled cpuset resize (CPU elasticity, Figure 11).
type CPUChange struct {
	At    sim.Duration
	Cores int
}

// RunConfig describes one benchmark execution.
type RunConfig struct {
	// Threads is the thread count (0 = the spec's optimal).
	Threads int
	// Cores is the number of physical cores in the cpuset.
	Cores int
	// SMT is hyper-threads per core (0/1 = HT off).
	SMT int
	// Feat selects kernel features (VB, pinning, VM).
	Feat sched.Features
	// Detect selects the spin detector.
	Detect bwd.Mode
	// Seed makes the run reproducible.
	Seed uint64
	// WorkScale scales the spec's TotalWork (0 = 1.0).
	WorkScale float64
	// WeakScaling grows the problem with the thread count (work per thread
	// held constant at the optimal-thread share) instead of the paper's
	// default strong scaling. §4.5 names this the approach's limitation:
	// per-thread synchronization work does not shrink as threads grow, so
	// oversubscription overhead becomes unavoidable.
	WeakScaling bool
	// Plan schedules cpuset resizes during the run.
	Plan []CPUChange
	// Tracer, when non-nil, receives every scheduling event of the run.
	// Tracing observes a run without changing it.
	Tracer sched.Tracer `json:"-"`
	// Sampler, when non-nil, is registered with the kernel and snapshots
	// scheduler state at its sim-time interval (internal/metrics). Like
	// Tracer it is observation-only.
	Sampler sched.Sampler `json:"-"`
	// Policy selects the kernel scheduling policy (sched.PolicyNames);
	// "" is cfs. The policy changes every scheduling decision of the run.
	Policy string
	// LockImpl substitutes the user-level lock implementation, as the
	// SHFLLOCK evaluation does via library interposition (Figure 15):
	// "" or "pthread" (futex mutex), "mutexee", "mcstp", "shfllock".
	LockImpl string
	// Horizon aborts a stuck run (0 = 120 virtual seconds).
	Horizon sim.Duration
}

// Result is the outcome of one benchmark execution.
type Result struct {
	Spec     string
	Threads  int
	Cores    int
	ExecTime sim.Duration
	Metrics  sched.Metrics
	BWD      bwd.Stats
	// UtilPct is average CPU utilization in percent-of-one-core units
	// summed over the cpuset (800 = eight fully busy cores), as Table 1
	// reports it.
	UtilPct float64
	// SyncOps counts synchronization operations performed (lock
	// acquisitions, barrier arrivals, spin handoffs).
	SyncOps uint64
	// Events is the number of simulation events the engine executed — a
	// host-side cost measure (benchmark/'s host-ns-per-event denominator),
	// not a model output.
	Events uint64
	// Err is non-nil if the run did not complete before the horizon.
	Err error
}

// Run executes spec under cfg and returns measurements.
func Run(spec *Spec, cfg RunConfig) Result {
	threads := cfg.Threads
	if threads <= 0 {
		threads = spec.OptimalThreads
	}
	cores := cfg.Cores
	if cores <= 0 {
		cores = 8
	}
	smt := cfg.SMT
	if smt <= 0 {
		smt = 1
	}
	scale := cfg.WorkScale
	if scale <= 0 {
		scale = 1
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 120 * sim.Second
	}

	eng := sim.NewEngine(cfg.Seed*2654435761 + 17)
	// The machine must physically contain every core the elasticity plan
	// will enable.
	maxCores := cores
	for _, ch := range cfg.Plan {
		maxCores = max(maxCores, ch.Cores)
	}
	m := NewMachine(eng, MachineSpec{
		Cores: cores, MaxCores: maxCores, SMT: smt, Feat: cfg.Feat, Policy: cfg.Policy,
		Seed: cfg.Seed + 99, Detect: cfg.Detect, Tracer: cfg.Tracer, Sampler: cfg.Sampler,
	})
	k, det := m.K, m.Det

	work := sim.Duration(float64(spec.TotalWork) * scale)
	if cfg.WeakScaling && spec.OptimalThreads > 0 {
		work = work * sim.Duration(threads) / sim.Duration(spec.OptimalThreads)
	}
	r := &runner{
		spec:     spec,
		k:        k,
		tbl:      m.Futexes,
		threads:  threads,
		cores:    cores,
		work:     work,
		lockImpl: cfg.LockImpl,
	}
	r.prepare()
	r.spawn()

	if det != nil {
		det.Start()
	}
	for _, ch := range cfg.Plan {
		ch := ch
		eng.After(ch.At, func() { k.SetAllowedCPUs(ch.Cores * smt) })
	}

	start := eng.Now()
	err := k.RunToCompletion(start.Add(horizon))
	end := eng.Now()
	if det != nil {
		det.Stop()
	}

	res := Result{
		Spec:     spec.Name,
		Threads:  threads,
		Cores:    cores,
		ExecTime: end.Sub(start),
		Metrics:  k.Metrics,
		SyncOps:  r.syncOps,
		Events:   eng.Executed(),
		Err:      err,
	}
	if det != nil {
		res.BWD = det.Stats
	}
	if res.ExecTime > 0 {
		res.UtilPct = float64(k.TotalBusy()) / float64(res.ExecTime) * 100
	}
	if err != nil {
		// Threads still parked at the horizon would otherwise keep the
		// kernel reachable for the life of the process.
		eng.Close()
	}
	return res
}

// runner holds the shared state of one benchmark execution.
type runner struct {
	spec    *Spec
	k       *sched.Kernel
	tbl     *futex.Table
	threads int
	cores   int
	work    sim.Duration

	dilation float64
	perWS    int64

	lockImpl   string
	barrier    *locks.Barrier
	lbLock     locks.Locker
	lbCond     *locks.CondL
	lbCnt      int
	lbGen      uint64
	mutexes    []locks.Locker
	condGroups []*condGroup
	ringDone   []*sched.Word
	roundSeed  []uint64

	syncOps uint64
}

// prepare builds the synchronization objects and the memory dilation
// factor for the chosen concurrency.
func (r *runner) prepare() {
	s := r.spec
	if r.threads > 0 && s.TotalWS > 0 {
		r.perWS = s.TotalWS / int64(r.threads)
	}
	r.dilation = r.memDilation()
	r.roundSeed = make([]uint64, r.threads)
	switch s.Sync {
	case SyncBarrier:
		if r.substituted() {
			r.lbLock = r.newLock()
			r.lbCond = locks.NewCondL(r.tbl)
		} else {
			r.barrier = locks.NewBarrier(r.tbl, r.threads)
		}
	case SyncMutex:
		if s.BarrierEvery > 0 {
			r.barrier = locks.NewBarrier(r.tbl, r.threads)
		}
		n := s.NLocks
		if n <= 0 {
			n = 1
		}
		if s.LocksScaleWithThreads && s.OptimalThreads > 0 {
			n = n * r.threads / s.OptimalThreads
			if n < 1 {
				n = 1
			}
		}
		for i := 0; i < n; i++ {
			r.mutexes = append(r.mutexes, r.newLock())
		}
	case SyncCond:
		g := s.CondGroup
		if g <= 0 || g > r.threads {
			g = r.threads
		}
		ngroups := (r.threads + g - 1) / g
		for i := 0; i < ngroups; i++ {
			r.condGroups = append(r.condGroups, &condGroup{
				lock: r.newLock(),
				cond: locks.NewCondL(r.tbl),
			})
		}
		// Group sizes: threads are dealt round-robin into groups.
		for i := 0; i < r.threads; i++ {
			r.condGroups[i%ngroups].size++
		}
	case SyncCustomSpin:
		for i := 0; i < r.threads; i++ {
			r.ringDone = append(r.ringDone, r.k.NewWord(0))
		}
	case SyncNone:
		// Embarrassingly parallel phases synchronize only at join.
	}
}

// substituted reports whether a non-default lock library is interposed.
func (r *runner) substituted() bool {
	return r.lockImpl != "" && r.lockImpl != "pthread"
}

// newLock builds one user-level lock per the configured implementation.
func (r *runner) newLock() locks.Locker {
	switch r.lockImpl {
	case "", "pthread":
		return locks.NewMutex(r.tbl)
	case "mutexee":
		return locks.NewMutexee(r.tbl)
	case "mcstp":
		return locks.NewMCSTP(r.tbl)
	case "shfllock":
		return locks.NewShfllock(r.tbl)
	}
	panic("workload: unknown lock implementation " + r.lockImpl)
}

// lockBarrierArrive is a mutex+cond barrier over the substituted lock, the
// shape interposition gives pthread_barrier-style code.
func (r *runner) lockBarrierArrive(t *sched.Thread) {
	r.lbLock.Lock(t)
	r.lbCnt++
	if r.lbCnt == r.threads {
		r.lbCnt = 0
		r.lbGen++
		r.lbCond.Broadcast(t)
		r.lbLock.Unlock(t)
		return
	}
	gen := r.lbGen
	for r.lbGen == gen {
		r.lbCond.Wait(t, r.lbLock)
	}
	r.lbLock.Unlock(t)
}

// memDilation scales compute time by the memory envelope: the per-access
// cost of this concurrency's share relative to the optimal-concurrency
// share (at which TotalWork is defined). Oversubscription shrinks the
// per-thread working set (a TLB/cache benefit for random access) but also
// shares the core's private caches among co-runners.
func (r *runner) memDilation() float64 {
	s := r.spec
	if s.MemBound <= 0 || s.TotalWS <= 0 || s.Pattern == mem.NoAccess {
		return 1
	}
	m := r.k.MemModel()
	coRun := func(threads int) int {
		k := threads / r.cores
		if k < 1 {
			k = 1
		}
		return k
	}
	base := m.PerAccessNS(mem.Footprint{Pattern: s.Pattern, Bytes: s.TotalWS / int64(s.OptimalThreads)}, 1)
	cur := m.PerAccessNS(mem.Footprint{Pattern: s.Pattern, Bytes: r.perWS}, coRun(r.threads))
	if base <= 0 {
		return 1
	}
	ratio := cur / base
	return 1 + s.MemBound*(ratio-1)
}

// workFor returns thread i's compute time for one round. Imbalance is
// transient: each (thread, round) draws its own factor in 1 +/- Imbalance,
// as real task distributions vary per phase. Finer-grained threads
// therefore smooth imbalance — the reason facesim-like programs benefit
// from oversubscription. The mean work is preserved so strong scaling
// holds.
func (r *runner) workFor(i, rounds int) sim.Duration {
	s := r.spec
	per := float64(r.work) / float64(r.threads) / float64(rounds)
	f := 1.0
	if r.threads > 1 && s.Imbalance > 0 {
		h := splitmix(uint64(i)*0x9E3779B9 + r.roundSeed[i]*0x85EBCA6B + 0xC2B2AE35)
		u := float64(h>>11) / (1 << 53)
		f = 1 + s.Imbalance*(2*u-1)
		r.roundSeed[i]++
	}
	return sim.Duration(per * f * r.dilation)
}

// splitmix is a stateless 64-bit mixer for per-(thread,round) draws.
func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// runChunk consumes d of compute, injecting the spec's occasional
// tight-loop segments (BWD false-positive material).
func (r *runner) runChunk(t *sched.Thread, d sim.Duration) {
	s := r.spec
	if s.TightLoopEvery <= 0 || s.TightLoopLen <= 0 {
		t.Run(d)
		return
	}
	rng := r.k.Rand()
	for d > 0 {
		gap := sim.Duration(rng.ExpFloat64() * float64(s.TightLoopEvery))
		if gap >= d {
			t.Run(d)
			return
		}
		t.Run(gap)
		t.RunTight(s.TightLoopLen, 3)
		d -= gap
	}
}

// spawn launches the benchmark's threads.
func (r *runner) spawn() {
	s := r.spec
	rounds := s.Rounds
	if rounds < 1 {
		rounds = 1
	}
	for i := 0; i < r.threads; i++ {
		i := i
		body := func(t *sched.Thread) {
			if r.perWS > 0 {
				// The per-switch refill penalty covers only the slice-hot
				// portion of the working set (a thread cannot re-touch
				// megabytes within one slice), so the warmup footprint is
				// capped at the L2 scale; the full share still drives the
				// steady-state dilation.
				warmWS := r.perWS
				if warmWS > 128*kb {
					warmWS = 128 * kb
				}
				t.Footprint = mem.Footprint{Pattern: s.Pattern, Bytes: warmWS}
			}
			switch s.Sync {
			case SyncNone:
				for rd := 0; rd < rounds; rd++ {
					r.runChunk(t, r.workFor(i, rounds))
				}
			case SyncBarrier:
				for rd := 0; rd < rounds; rd++ {
					r.runChunk(t, r.workFor(i, rounds))
					if r.barrier != nil {
						r.barrier.Await(t)
					} else {
						r.lockBarrierArrive(t)
					}
					r.syncOps++
				}
			case SyncMutex:
				ops := 1
				if s.LocksScaleWithThreads && s.OptimalThreads > 0 {
					// fluidanimate: boundary locks grow with partitioning,
					// so locking work scales with the thread count.
					ops = 2 * r.threads / s.OptimalThreads
					if ops < 1 {
						ops = 1
					}
				}
				rng := r.k.Rand()
				for rd := 0; rd < rounds; rd++ {
					r.runChunk(t, r.workFor(i, rounds))
					for o := 0; o < ops; o++ {
						m := r.mutexes[rng.Intn(len(r.mutexes))]
						m.Lock(t)
						t.Run(s.CriticalSection)
						m.Unlock(t)
						r.syncOps++
					}
					if s.BarrierEvery > 0 && (rd+1)%s.BarrierEvery == 0 {
						r.barrier.Await(t)
						r.syncOps++
					}
				}
			case SyncCond:
				g := r.condGroups[i%len(r.condGroups)]
				for rd := 0; rd < rounds; rd++ {
					r.runChunk(t, r.workFor(i, rounds))
					if s.CriticalSection > 0 {
						t.Run(s.CriticalSection)
					}
					r.condArrive(t, g)
					r.syncOps++
				}
			case SyncCustomSpin:
				r.ringBody(t, i, rounds)
			}
		}
		th := r.k.Spawn(fmt.Sprintf("%s-%d", s.Name, i), body)
		// Each thread's natural period is its share of one round of work;
		// the EDF policy derives wakeup deadlines from it (other policies
		// ignore the hint).
		if iv := s.Interval(r.threads); iv > 0 {
			th.SetRelDeadline(iv)
		}
	}
}

// condGroup is one condvar handoff group: a pipeline stage set that
// synchronizes locally (PARSEC-style mutex+cond convergence).
type condGroup struct {
	lock locks.Locker
	cond *locks.CondL
	size int
	cnt  int
	gen  uint64
}

// condArrive converges the thread's group: the last arriver bumps the
// generation and broadcasts; everyone else waits on the condition.
func (r *runner) condArrive(t *sched.Thread, g *condGroup) {
	g.lock.Lock(t)
	g.cnt++
	if g.cnt == g.size {
		g.cnt = 0
		g.gen++
		g.cond.Broadcast(t)
		g.lock.Unlock(t)
		return
	}
	gen := g.gen
	for g.gen == gen {
		g.cond.Wait(t, g.lock)
	}
	g.lock.Unlock(t)
}

// ringBody is the custom-spin wavefront pipeline of lu and volrend:
// thread i's lap L may start only after thread i-1 finished lap L, and a
// thread may run at most spinLookahead laps ahead of its successor (the
// bounded blocking factor of lu's 2D wavefront). Both waits are plain busy
// loops on shared flags — invisible to PLE, visible to BWD. The tight
// bidirectional coupling is what turns one descheduled thread into a
// cascading stall under oversubscription.
func (r *runner) ringBody(t *sched.Thread, i, rounds int) {
	const lookahead = 1
	sig := hw.NewSpinSig(0x600000+uint64(i)*0x100, 4, false)
	prev := r.ringDone[(i+r.threads-1)%r.threads]
	next := r.ringDone[(i+1)%r.threads]
	for lap := uint64(1); lap <= uint64(rounds); lap++ {
		lap := lap
		if i > 0 {
			t.SpinUntil(func() bool { return prev.Load() >= lap }, sig)
			r.syncOps++
		}
		if lap > lookahead && i < r.threads-1 {
			t.SpinUntil(func() bool { return next.Load() >= lap-lookahead }, sig)
			r.syncOps++
		}
		r.runChunk(t, r.workFor(i, rounds))
		r.ringDone[i].Store(lap)
	}
}
