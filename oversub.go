// Package oversub is a simulation library for studying efficient thread
// oversubscription, reproducing "Towards Exploiting CPU Elasticity via
// Efficient Thread Oversubscription" (HPDC '21).
//
// It provides a deterministic discrete-event model of a multicore machine
// and its OS kernel — CFS-style scheduling, futex and epoll blocking, load
// balancing, dynamic cpusets — plus the paper's two mechanisms:
//
//   - Virtual blocking (VB): blocking synchronization that never removes
//     threads from the runqueue; blocked threads carry a thread_state flag
//     and sort behind runnable ones, so wakeup is a flag clear instead of
//     the expensive sleep-queue dance.
//   - Busy-waiting detection (BWD): a per-core 100 microsecond timer that
//     reads the simulated last-branch records and performance counters and
//     deschedules threads whose window shows only one repeated backward
//     branch and no cache/TLB misses.
//
// A System bundles an engine, a kernel, and a futex table:
//
//	sys := oversub.NewSystem(oversub.SystemConfig{Cores: 8, Features: oversub.Features{VB: true}})
//	b := sys.NewBarrier(32)
//	for i := 0; i < 32; i++ {
//	    sys.Spawn("worker", func(t *oversub.Thread) {
//	        for r := 0; r < 100; r++ {
//	            t.Run(50 * oversub.Microsecond)
//	            b.Await(t)
//	        }
//	    })
//	}
//	if err := sys.Run(); err != nil { ... }
//
// The workload sub-API (Benchmarks, RunBenchmark, Memcached) exposes the
// paper's full evaluation suite; cmd/hpdc21 regenerates every table and
// figure.
package oversub

import (
	"oversub/internal/bwd"
	"oversub/internal/epoll"
	"oversub/internal/futex"
	"oversub/internal/hw"
	"oversub/internal/locks"
	"oversub/internal/mem"
	"oversub/internal/omp"
	"oversub/internal/sched"
	"oversub/internal/sim"
	"oversub/internal/trace"
	"oversub/internal/workload"
)

// Core simulation types.
type (
	// Time is a point in virtual time (nanoseconds).
	Time = sim.Time
	// Duration is a span of virtual time (nanoseconds).
	Duration = sim.Duration
	// Engine is the discrete-event simulation engine.
	Engine = sim.Engine

	// Kernel is the simulated OS kernel.
	Kernel = sched.Kernel
	// Thread is a simulated kernel thread; workload bodies receive one.
	Thread = sched.Thread
	// Features selects kernel mechanisms (VB, pinning, VM).
	Features = sched.Features
	// Costs is the kernel's latency table.
	Costs = sched.Costs
	// Metrics aggregates kernel counters for a run.
	Metrics = sched.Metrics
	// Word is a shared memory cell for user-level synchronization.
	Word = sched.Word

	// Topology describes sockets, cores, and SMT.
	Topology = hw.Topology
	// SpinSig is a busy-wait loop's architectural signature.
	SpinSig = hw.SpinSig

	// Detector is the busy-waiting detection / PLE engine.
	Detector = bwd.Detector
	// DetectorStats counts detector activity.
	DetectorStats = bwd.Stats

	// Futex is a kernel-supported user synchronization word.
	Futex = futex.Futex
	// FutexTable is a process's futex hash table.
	FutexTable = futex.Table
	// Poll is an epoll instance.
	Poll = epoll.Poll

	// Mutex, Cond, Barrier, and Semaphore are futex-based blocking
	// primitives (pthreads equivalents).
	Mutex     = locks.Mutex
	Cond      = locks.Cond
	Barrier   = locks.Barrier
	Semaphore = locks.Semaphore
	// RWLock is a readers-writer lock.
	RWLock = locks.RWLock
	// Locker is any mutual-exclusion lock in the zoo.
	Locker = locks.Locker

	// OMPTeam is an OpenMP-style persistent worker team.
	OMPTeam = omp.Team
	// OMPSchedule selects an OpenMP work-sharing discipline.
	OMPSchedule = omp.Schedule

	// MemModel is the analytic cache/TLB cost model.
	MemModel = mem.Model

	// TraceRing records kernel scheduling events in a bounded buffer.
	TraceRing = trace.Ring
	// TraceEvent is one recorded scheduling event.
	TraceEvent = trace.Event
	// Footprint describes a thread's memory behaviour.
	Footprint = mem.Footprint
	// Pattern is a memory access pattern.
	Pattern = mem.Pattern
)

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// OpenMP schedules.
const (
	OMPStatic  = omp.Static
	OMPDynamic = omp.Dynamic
	OMPGuided  = omp.Guided
)

// Access patterns (Figure 4).
const (
	NoAccess = mem.NoAccess
	SeqRead  = mem.SeqRead
	SeqRMW   = mem.SeqRMW
	RndRead  = mem.RndRead
	RndRMW   = mem.RndRMW
)

// DetectMode selects the spin detector; it is shared with BenchConfig.
type DetectMode = bwd.Mode

// Detector modes.
const (
	DetectOff = bwd.ModeOff
	DetectBWD = bwd.ModeBWD
	DetectPLE = bwd.ModePLE
)

// DefaultCosts returns the paper-calibrated kernel cost table.
func DefaultCosts() Costs { return sched.DefaultCosts() }

// PolicyNames returns the registered scheduling-policy names ("cfs",
// "edf", "shinjuku", "oracle") in stable order.
func PolicyNames() []string { return sched.PolicyNames() }

// ValidPolicy reports whether name is a registered scheduling policy (""
// selects the default, cfs).
func ValidPolicy(name string) bool { return sched.ValidPolicy(name) }

// PaperTopology returns the paper's dual-socket 18-core testbed.
func PaperTopology(smt int) Topology { return hw.PaperTopology(smt) }

// NewSpinSig builds a spin-loop signature for SpinUntil.
func NewSpinSig(addr uint64, iterNS float64, hasPause bool) SpinSig {
	return hw.NewSpinSig(addr, iterNS, hasPause)
}

// SystemConfig assembles a System.
type SystemConfig struct {
	// Cores is the cpuset size in physical cores (default 8).
	Cores int
	// MaxCores sizes the machine for later growth (default Cores).
	MaxCores int
	// SMT is hyper-threads per core (default 1).
	SMT int
	// Features selects kernel mechanisms.
	Features Features
	// Detect arms BWD or PLE for the whole run.
	Detect DetectMode
	// Costs overrides the kernel cost table (zero value = defaults).
	Costs *Costs
	// Seed fixes the run's randomness.
	Seed uint64
	// Policy selects the scheduling policy (PolicyNames lists them; "" is
	// cfs).
	Policy string
}

// System bundles everything needed to write and run a simulated workload.
type System struct {
	eng    *Engine
	kernel *Kernel
	ftable *FutexTable
	det    *Detector
}

// NewSystem builds a simulated machine, kernel, and futex table.
func NewSystem(cfg SystemConfig) *System {
	cores := cfg.Cores
	if cores <= 0 {
		cores = 8
	}
	eng := sim.NewEngine(cfg.Seed*1000003 + 5)
	m := workload.NewMachine(eng, workload.MachineSpec{
		Cores: cores, MaxCores: cfg.MaxCores, SMT: cfg.SMT, Feat: cfg.Features, Costs: cfg.Costs,
		Policy: cfg.Policy, Seed: cfg.Seed + 1, Detect: cfg.Detect,
	})
	if m.Det != nil {
		m.Det.Start()
	}
	return &System{eng: eng, kernel: m.K, ftable: m.Futexes, det: m.Det}
}

// Engine returns the simulation engine (for scheduling custom events).
func (s *System) Engine() *Engine { return s.eng }

// Kernel returns the simulated kernel.
func (s *System) Kernel() *Kernel { return s.kernel }

// Futexes returns the system's futex table.
func (s *System) Futexes() *FutexTable { return s.ftable }

// Detector returns the armed detector, or nil.
func (s *System) Detector() *Detector { return s.det }

// Spawn starts a simulated thread running body.
func (s *System) Spawn(name string, body func(*Thread)) *Thread {
	return s.kernel.Spawn(name, body)
}

// Run executes the simulation until every thread exits. It returns an
// error if threads remain (deadlock) after 600 virtual seconds.
func (s *System) Run() error {
	return s.kernel.RunToCompletion(Time(600 * Second))
}

// RunFor executes the simulation with an explicit virtual-time horizon.
func (s *System) RunFor(horizon Duration) error {
	return s.kernel.RunToCompletion(s.eng.Now().Add(horizon))
}

// Now returns the current virtual time.
func (s *System) Now() Time { return s.eng.Now() }

// Metrics returns the kernel counters accumulated so far.
func (s *System) Metrics() Metrics { return s.kernel.Metrics }

// SetCores resizes the cpuset at runtime (CPU elasticity).
func (s *System) SetCores(n int) { s.kernel.SetAllowedCPUs(n) }

// NewMutex allocates a pthread-style futex mutex.
func (s *System) NewMutex() *Mutex { return locks.NewMutex(s.ftable) }

// NewCond allocates a condition variable.
func (s *System) NewCond() *Cond { return locks.NewCond(s.ftable) }

// NewBarrier allocates a barrier for n parties.
func (s *System) NewBarrier(n int) *Barrier { return locks.NewBarrier(s.ftable, n) }

// NewSemaphore allocates a counting semaphore.
func (s *System) NewSemaphore(initial uint64) *Semaphore {
	return locks.NewSemaphore(s.ftable, initial)
}

// NewPoll allocates an epoll instance.
func (s *System) NewPoll() *Poll { return epoll.New(s.kernel) }

// NewWord allocates a shared memory cell.
func (s *System) NewWord(v uint64) *Word { return s.kernel.NewWord(v) }

// Trace attaches a ring tracer holding the most recent capacity scheduling
// events and returns it.
func (s *System) Trace(capacity int) *TraceRing {
	r := trace.NewRing(capacity)
	s.kernel.SetTracer(r)
	return r
}

// SpinLocks returns the paper's ten spinlock implementations on this
// system, in Figure 13 order.
func (s *System) SpinLocks() []Locker { return locks.SpinLockSet(s.kernel) }

// NewMutexee allocates the Mutexee spin-then-park lock (§4.4).
func (s *System) NewMutexee() Locker { return locks.NewMutexee(s.ftable) }

// NewMCSTP allocates the MCS time-published lock (§4.4).
func (s *System) NewMCSTP() Locker { return locks.NewMCSTP(s.ftable) }

// NewShfllock allocates a SHFLLOCK (§4.4).
func (s *System) NewShfllock() Locker { return locks.NewShfllock(s.ftable) }

// NewHCLH allocates a hierarchical CLH lock (paper citation [31]).
func (s *System) NewHCLH() Locker { return locks.NewHCLH(s.kernel) }

// NewAdaptive allocates a GLS-style contention-adaptive lock (citation [1]).
func (s *System) NewAdaptive() Locker { return locks.NewAdaptive(s.ftable) }

// NewOMPTeam spawns an OpenMP-style worker team of n threads (the caller's
// thread participates as worker 0 in each region).
func (s *System) NewOMPTeam(n int) *OMPTeam { return omp.NewTeam(s.ftable, n) }

// NewRWLock allocates a writer-preferring readers-writer lock.
func (s *System) NewRWLock() *RWLock { return locks.NewRWLock(s.ftable) }
