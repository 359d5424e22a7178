package workload

import (
	"oversub/internal/bwd"
	"oversub/internal/hw"
	"oversub/internal/locks"
	"oversub/internal/mem"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// microEngine seeds the engine of a micro-benchmark or a single-machine
// service model; the machine's kernel takes seed itself.
func microEngine(seed uint64) *sim.Engine { return sim.NewEngine(seed*7919 + 3) }

// DirectCostResult is one point of the Figure 2 curve.
type DirectCostResult struct {
	Threads  int
	ExecTime sim.Duration
	Switches uint64
}

// DirectCost runs the §2.3 direct-cost micro-benchmark: a fixed total
// amount of pure computation (no memory footprint) split evenly over n
// threads on one core, each thread yielding after every minimum time slice
// (750 us). With atomicShared, every iteration also performs an atomic
// fetch-and-add on a cell shared by all threads — which the paper shows
// adds no oversubscription overhead, since at most one thread runs at a
// time.
func DirectCost(n int, atomicShared bool, seed uint64) DirectCostResult {
	k := NewMachine(microEngine(seed), MachineSpec{Cores: 1, Seed: seed}).K
	const total = 120 * sim.Millisecond
	iter := k.Costs().MinGranularity
	shared := k.NewWord(0)
	per := total / sim.Duration(n)
	for i := 0; i < n; i++ {
		k.Spawn("w", func(t *sched.Thread) {
			remaining := per
			for remaining > 0 {
				chunk := iter
				if chunk > remaining {
					chunk = remaining
				}
				t.Run(chunk)
				if atomicShared {
					shared.Add(1)
					t.Run(25) // the RMW itself
				}
				t.Yield()
				remaining -= chunk
			}
		})
	}
	if err := k.RunToCompletion(sim.Time(60 * sim.Second)); err != nil {
		panic(err)
	}
	return DirectCostResult{
		Threads:  n,
		ExecTime: k.Now().Sub(0),
		Switches: k.Metrics.VolCS + k.Metrics.InvolCS,
	}
}

// IndirectCostResult is one point of the Figure 4 curve.
type IndirectCostResult struct {
	Pattern    mem.Pattern
	TotalBytes int64
	// PerCS is the indirect cost of one context switch in nanoseconds:
	// (t_over - t_serial - switches*direct) / switches. Negative values
	// mean oversubscription helped.
	PerCS    float64
	Switches uint64
}

// IndirectCost runs the §2.3 indirect-cost micro-benchmark: one thread
// repeatedly traversing a total-byte array versus two threads pinned to the
// same core, each traversing half and yielding after every traversal.
func IndirectCost(p mem.Pattern, total int64, seed uint64) IndirectCostResult {
	const traversals = 24
	model := mem.NewModel(hw.PaperCaches())

	serial := func() sim.Duration {
		k := NewMachine(microEngine(seed), MachineSpec{Cores: 1, Seed: seed}).K
		fp := mem.Footprint{Pattern: p, Bytes: total}
		k.Spawn("serial", func(t *sched.Thread) {
			t.Footprint = fp
			per := model.TraversalTime(fp, 1)
			for i := 0; i < traversals; i++ {
				t.Run(per)
			}
		})
		if err := k.RunToCompletion(sim.Time(600 * sim.Second)); err != nil {
			panic(err)
		}
		return k.Now().Sub(0)
	}()

	k := NewMachine(microEngine(seed), MachineSpec{Cores: 1, Seed: seed}).K
	sub := mem.Footprint{Pattern: p, Bytes: total / 2}
	for i := 0; i < 2; i++ {
		k.Spawn("half", func(t *sched.Thread) {
			t.Footprint = sub
			per := model.TraversalTime(sub, 2)
			for j := 0; j < traversals; j++ {
				t.Run(per)
				t.Yield()
			}
		})
	}
	if err := k.RunToCompletion(sim.Time(600 * sim.Second)); err != nil {
		panic(err)
	}
	over := k.Now().Sub(0)
	switches := k.Metrics.VolCS + k.Metrics.InvolCS
	direct := float64(k.Costs().ContextSwitch)
	perCS := 0.0
	if switches > 0 {
		perCS = (float64(over) - float64(serial) - direct*float64(switches)) / float64(switches)
	}
	return IndirectCostResult{Pattern: p, TotalBytes: total, PerCS: perCS, Switches: switches}
}

// Primitive selects the pthreads primitive for the Figure 10 stress test.
type Primitive int

const (
	// PrimMutex stresses a single contended pthread mutex.
	PrimMutex Primitive = iota
	// PrimCond stresses condition-variable broadcasts.
	PrimCond
	// PrimBarrier stresses a global barrier.
	PrimBarrier
)

// String names the primitive as in Figure 10's legend.
func (p Primitive) String() string {
	switch p {
	case PrimMutex:
		return "pthread_mutex"
	case PrimCond:
		return "pthread_cond"
	case PrimBarrier:
		return "pthread_barrier"
	}
	return "?"
}

// PrimitiveStress runs the §4.2 micro-benchmark: threads repeatedly
// exercise one blocking primitive with negligible work in between, so
// execution time is dominated by the kernel's sleep/wakeup path. It
// returns total execution time; Figure 10 reports vanilla/VB speedups.
func PrimitiveStress(p Primitive, threads, cores int, vb bool, seed uint64) sim.Duration {
	m := NewMachine(microEngine(seed), MachineSpec{Cores: cores, Feat: sched.Features{VB: vb}, Seed: seed})
	k, tbl := m.K, m.Futexes
	const iters = 1500
	think := 3 * sim.Microsecond
	switch p {
	case PrimMutex:
		m := locks.NewMutex(tbl)
		for i := 0; i < threads; i++ {
			k.Spawn("m", func(t *sched.Thread) {
				for j := 0; j < iters; j++ {
					m.Lock(t)
					t.Run(1 * sim.Microsecond)
					m.Unlock(t)
					t.Run(think)
				}
			})
		}
	case PrimCond:
		m := locks.NewMutex(tbl)
		c := locks.NewCond(tbl)
		count := 0
		gen := uint64(0)
		for i := 0; i < threads; i++ {
			k.Spawn("c", func(t *sched.Thread) {
				for j := 0; j < iters; j++ {
					t.Run(think)
					m.Lock(t)
					count++
					if count == threads {
						count = 0
						gen++
						c.Broadcast(t)
						m.Unlock(t)
						continue
					}
					g := gen
					for gen == g {
						c.Wait(t, m)
					}
					m.Unlock(t)
				}
			})
		}
	case PrimBarrier:
		b := locks.NewBarrier(tbl, threads)
		for i := 0; i < threads; i++ {
			k.Spawn("b", func(t *sched.Thread) {
				for j := 0; j < iters; j++ {
					t.Run(think)
					b.Await(t)
				}
			})
		}
	}
	if err := k.RunToCompletion(sim.Time(600 * sim.Second)); err != nil {
		panic(err)
	}
	return k.Now().Sub(0)
}

// SpinLockKind identifies one of the ten Figure 13 algorithms.
type SpinLockKind int

// The ten spinlocks, in the paper's order.
const (
	LockALockLS SpinLockKind = iota
	LockCLH
	LockMalthusian
	LockMCS
	LockPartitioned
	LockPthreadSpin
	LockTicket
	LockTTAS
	LockCNA
	LockAQS
)

// numSpinLocks counts the members above. It is an int, not a
// SpinLockKind: a count is not an enum member, and keeping it out of the
// type keeps switches over SpinLockKind exhaustive at ten cases.
const numSpinLocks = int(LockAQS) + 1

// SpinLockKinds lists all ten kinds in paper order.
func SpinLockKinds() []SpinLockKind {
	out := make([]SpinLockKind, numSpinLocks)
	for i := range out {
		out[i] = SpinLockKind(i)
	}
	return out
}

// New constructs the lock on kernel k.
func (kind SpinLockKind) New(k *sched.Kernel) locks.Spinner {
	switch kind {
	case LockALockLS:
		return locks.NewALockLS(k, 64)
	case LockCLH:
		return locks.NewCLH(k)
	case LockMalthusian:
		return locks.NewMalthusian(k)
	case LockMCS:
		return locks.NewMCS(k)
	case LockPartitioned:
		return locks.NewPartitioned(k, 8)
	case LockPthreadSpin:
		return locks.NewPthreadSpin(k)
	case LockTicket:
		return locks.NewTicket(k)
	case LockTTAS:
		return locks.NewTTAS(k)
	case LockCNA:
		return locks.NewCNA(k)
	case LockAQS:
		return locks.NewAQS(k)
	}
	panic("workload: unknown spinlock kind")
}

// String names the kind as in Figure 13.
func (kind SpinLockKind) String() string {
	names := []string{"alock-ls", "clh", "malth", "mcs", "partitioned",
		"pthread", "ticket", "ttas", "cna", "aqs"}
	return names[kind]
}

// SpinPipelineResult is one bar of Figure 13.
type SpinPipelineResult struct {
	Lock     SpinLockKind
	Threads  int
	ExecTime sim.Duration
	BWD      bwd.Stats
}

// SpinPipeline runs the §4.3 busy-waiting micro-benchmark: a multi-stage
// pipeline whose stage handoffs serialize through one spinlock, so a
// stalled stage cascades into its downstream stages. The total locked work
// is fixed (strong scaling); threads spin while waiting their turn.
func SpinPipeline(kind SpinLockKind, threads, cores int, detect bwd.Mode, vm bool, seed uint64) SpinPipelineResult {
	seed += uint64(kind) * 977
	m := NewMachine(microEngine(seed), MachineSpec{Cores: cores, Feat: sched.Features{VM: vm}, Seed: seed, Detect: detect})
	k, det := m.K, m.Det
	l := kind.New(k)
	const totalRounds = 160
	const stageWork = 150 * sim.Microsecond
	rounds := totalRounds / threads
	for i := 0; i < threads; i++ {
		k.Spawn("stage", func(t *sched.Thread) {
			for j := 0; j < rounds; j++ {
				l.Lock(t)
				t.Run(stageWork)
				l.Unlock(t)
				t.Run(2 * sim.Microsecond)
			}
		})
	}
	if det != nil {
		det.Start()
	}
	if err := k.RunToCompletion(sim.Time(600 * sim.Second)); err != nil {
		panic(err)
	}
	res := SpinPipelineResult{Lock: kind, Threads: threads, ExecTime: k.Now().Sub(0)}
	if det != nil {
		res.BWD = det.Stats
	}
	return res
}

// SensitivityResult is one row of Table 2.
type SensitivityResult struct {
	Lock        SpinLockKind
	Tries       uint64
	TruePos     uint64
	Sensitivity float64
}

// Sensitivity runs the Table 2 true-positive micro-benchmark for one
// spinlock: thread #1 holds the lock continuously while thread #2
// repeatedly tries to acquire it, both on a single core. Each bounded
// acquisition attempt spins with the algorithm's own loop signature; BWD
// should flag essentially every attempt.
func Sensitivity(kind SpinLockKind, tries int, seed uint64) SensitivityResult {
	seed += uint64(kind) * 131
	m := NewMachine(microEngine(seed), MachineSpec{Cores: 1, Seed: seed, Detect: bwd.ModeBWD})
	k, det := m.K, m.Det
	l := kind.New(k)
	sig := l.Sig()
	never := k.NewWord(0)
	// Attempt lengths vary as real retry loops do. Most attempts span a
	// full, clean 100us monitoring window regardless of phase; the
	// shortest ones can straddle two dirty windows and be missed — the
	// source of the paper's ~0.1-0.2% false negatives.
	tryBase := 198 * sim.Microsecond
	tryJit := 100 * sim.Microsecond
	rng := k.Rand().Split()
	done := false
	k.Spawn("holder", func(t *sched.Thread) {
		l.Lock(t)
		for !done {
			t.Run(500 * sim.Microsecond)
		}
		l.Unlock(t)
	})
	k.Spawn("tryer", func(t *sched.Thread) {
		for i := 0; i < tries; i++ {
			// One bounded acquisition attempt: spin with the lock's own
			// loop signature until the (never-satisfied) grant or timeout.
			tryLen := tryBase + rng.Duration(tryJit)
			t.SpinUntilDeadline(func() bool { return never.Load() == 1 }, sig,
				k.Now().Add(tryLen))
		}
		done = true
	})
	det.Start()
	if err := k.RunToCompletion(sim.Time(600 * sim.Second)); err != nil {
		panic(err)
	}
	res := SensitivityResult{Lock: kind, Tries: uint64(tries), TruePos: det.Stats.TruePositive}
	if res.TruePos > res.Tries {
		res.TruePos = res.Tries
	}
	res.Sensitivity = float64(res.TruePos) / float64(res.Tries)
	return res
}
