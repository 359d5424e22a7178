package sched

import (
	"fmt"

	"oversub/internal/hw"
	"oversub/internal/mem"
	"oversub/internal/rbtree"
	"oversub/internal/sim"
)

type rqNode = *rbtree.Node[*Thread]

type segKind int

const (
	segNone segKind = iota
	segOverhead
	segRun
	segTight
	segSpin
)

// cpu is one logical CPU: its runqueue, its current thread, and the open
// accounting segment.
type cpu struct {
	id      int
	enabled bool
	k       *Kernel

	tree      *rbtree.Tree[*Thread]
	nrBlocked int // virtually blocked threads in the tree

	curr      *Thread
	currStart sim.Time // when curr was dispatched
	lastRan   *Thread  // for context-switch and warmup charging
	minV      sim.Duration

	segStart sim.Time
	segSpeed float64 // CPU-time per wall-time during the open segment
	segKind  segKind
	segEv    sim.Event  // one-shot completion of the open segment
	slice    *sim.Timer // slice-expiry tick, rearmed per dispatch

	overhead sim.Duration // pending kernel overhead before the op resumes
	// migPending is the share of the pending overhead that came from
	// migration warmup (Thread.warm charged at dispatch); consumed as
	// overhead segments close so blame can carve it out (mig-penalty).
	migPending sim.Duration

	lock        *KLock // runqueue lock taken by remote wakers
	dispatchSeq uint64
	blockedSeq  uint64

	vbIdle        bool // every queued thread is virtually blocked
	vbExitPending bool

	schedQueued bool
	balance     *sim.Timer

	busy     sim.Duration
	busyMark sim.Time
	isBusy   bool

	core *hw.Core
}

// runnable returns the number of schedulable entities on the CPU (queued
// plus current). Virtually blocked threads count — that is the point of VB:
// the load signal stays stable.
func (c *cpu) runnable() int {
	n := c.tree.Len()
	if c.curr != nil {
		n++
	}
	return n
}

// eligible returns runnable entities excluding virtually blocked threads.
func (c *cpu) eligible() int { return c.runnable() - c.nrBlocked }

func (c *cpu) markBusy(now sim.Time) {
	if !c.isBusy {
		c.isBusy = true
		c.busyMark = now
	}
}

func (c *cpu) markIdle(now sim.Time) {
	if c.isBusy {
		c.busy += now.Sub(c.busyMark)
		c.isBusy = false
	}
}

// Metrics aggregates kernel-level counters for one run.
type Metrics struct {
	VolCS               uint64
	InvolCS             uint64
	MigrationsInNode    uint64
	MigrationsCrossNode uint64
	Wakeups             uint64
	VBWakes             uint64
	BWDDeschedules      uint64
	PLEExits            uint64
	FutexWaits          uint64
	FutexWakes          uint64
	EpollWaits          uint64
	EpollPosts          uint64
}

// Config assembles a kernel.
type Config struct {
	Topo  hw.Topology
	NCPUs int // size of the initial cpuset (allowed CPUs)
	Costs Costs
	Feat  Features
	Seed  uint64
	// Policy names the scheduling policy (see PolicyNames); "" selects cfs.
	Policy string
}

// Kernel is the simulated OS kernel: scheduler state plus the hardware
// observables of every core.
type Kernel struct {
	eng   *sim.Engine
	topo  hw.Topology
	costs Costs
	feat  Features
	// The flags sit beside feat's three bools, in the padding before the
	// next pointer; with live and nextPin 32-bit, Kernel stays within Go's
	// 512-byte size class (TestStructSizes).
	stopWhenIdle bool
	// syncing is set while SyncWindow serves a CPU's request: a body it
	// resumes must not fire compute in place, because the detector tick
	// that called SyncWindow reads the window afterwards.
	syncing  bool
	memModel *mem.Model
	rng      *sim.Rand

	policy policy
	// arrivals numbers enqueues: the arrival stamp FIFO policies order by.
	arrivals uint64

	cpus     []*cpu
	nAllowed int

	threads []*Thread
	live    int32
	nextPin int32

	kernProfile hw.ExecProfile
	// spinExit is the engine's lane for SpinExitLatency: every spin
	// completion is queued on it.
	spinExit *sim.Lane

	tracer Tracer

	sampler   Sampler
	samplerTm *sim.Timer

	// Metrics accumulates counters over the run.
	Metrics Metrics
}

// Tracer receives scheduling events as they happen; see internal/trace for
// a ring-buffer implementation. A nil tracer costs nothing.
type Tracer interface {
	Trace(at sim.Time, cpu, thread int, kind string, arg int64)
}

// SetTracer installs (or, with nil, removes) the kernel's event tracer.
func (k *Kernel) SetTracer(tr Tracer) { k.tracer = tr }

// Sampler receives periodic whole-kernel state snapshots at a fixed
// sim-time interval; see internal/metrics for the time-series
// implementation. The hook is observation-only: a Sample implementation
// must not mutate simulation state, consume the kernel's or engine's
// random source, or schedule events — sampling then leaves the run's
// outcome untouched, unlike the BWD detector whose window syncs perturb
// segment accounting.
type Sampler interface {
	// SampleInterval returns the sim-time spacing of snapshots. It is read
	// before each re-arm, so an implementation may lengthen its interval
	// mid-run (e.g. after downsampling). Non-positive intervals fall back
	// to 100 microseconds, the BWD hrtimer period.
	SampleInterval() sim.Duration
	// Sample observes the kernel at virtual time at. The final call of a
	// run (flushed by RunToCompletion) may repeat the last tick's
	// timestamp when the run ends exactly on a window boundary;
	// implementations dedupe by time.
	Sample(k *Kernel, at sim.Time)
}

// SetSampler installs (or, with nil, removes) the kernel's periodic state
// sampler and arms its sim-time tick.
func (k *Kernel) SetSampler(s Sampler) {
	if k.samplerTm != nil {
		k.samplerTm.Stop()
	}
	k.sampler = s
	if s != nil {
		if k.samplerTm == nil {
			k.samplerTm = k.eng.Lane(k.sampleInterval()).Timer(k.sampleTick)
		}
		k.armSample()
	}
}

// sampleInterval is the installed sampler's tick period.
func (k *Kernel) sampleInterval() sim.Duration {
	if iv := k.sampler.SampleInterval(); iv > 0 {
		return iv
	}
	return 100 * sim.Microsecond
}

// armSample rearms the sampler tick.
func (k *Kernel) armSample() {
	k.samplerTm.Rearm(k.sampleInterval())
}

func (k *Kernel) sampleTick() {
	if k.sampler == nil {
		return
	}
	k.sampler.Sample(k, k.eng.Now())
	k.armSample()
}

// EmitTrace lets simulated workloads add their own events (request span
// markers, DESIGN.md §14) to the kernel's trace stream. A no-op without a
// tracer; pass a nil thread and cpu -1 for machine-level events.
func (k *Kernel) EmitTrace(cpu int, t *Thread, kind string, arg int64) {
	k.trace(cpu, t, kind, arg)
}

// trace emits one event if a tracer is installed.
func (k *Kernel) trace(cpu int, t *Thread, kind string, arg int64) {
	if k.tracer == nil {
		return
	}
	tid := -1
	if t != nil {
		tid = t.ID
	}
	k.tracer.Trace(k.eng.Now(), cpu, tid, kind, arg)
}

// New builds a kernel on top of engine eng.
func New(eng *sim.Engine, cfg Config) *Kernel {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	total := cfg.Topo.NumCPUs()
	if cfg.NCPUs <= 0 || cfg.NCPUs > total {
		cfg.NCPUs = total
	}
	k := &Kernel{
		eng:      eng,
		topo:     cfg.Topo,
		costs:    cfg.Costs,
		feat:     cfg.Feat,
		memModel: mem.NewModel(hw.PaperCaches()),
		rng:      sim.NewRand(cfg.Seed ^ 0x5eed),
		// Kernel code (context switches, IRQs) touches scattered data.
		kernProfile: hw.ExecProfile{InstPerUS: 2000, InstPerL1Miss: 30, InstPerTLBMiss: 400, InstPerBranch: 5},
	}
	pol, ok := lookupPolicy(cfg.Policy)
	if !ok {
		panic("sched: unknown policy " + cfg.Policy)
	}
	k.policy = pol
	k.spinExit = eng.Lane(cfg.Costs.SpinExitLatency)
	k.cpus = make([]*cpu, total)
	for i := range k.cpus {
		c := &cpu{
			id:      i,
			k:       k,
			enabled: i < cfg.NCPUs,
			tree:    rbtree.New[*Thread](k.threadLess),
			core:    &hw.Core{ID: i},
		}
		c.lock = k.NewKLock(uint64(i))
		// The two per-CPU periodic paths each own one rearmable timer (and
		// its one closure) for the kernel's whole life.
		c.slice = eng.Timer(func() { k.sliceExpire(c) })
		c.balance = eng.Timer(func() { k.balanceTick(c) })
		k.cpus[i] = c
	}
	k.nAllowed = cfg.NCPUs
	for _, c := range k.cpus {
		k.armBalance(c)
	}
	return k
}

// threadLess is the runqueue order: virtual blocking is a kernel mechanism,
// so vblocked threads always sort last among themselves in FIFO (blockedKey)
// order, while the policy orders the runnable prefix; thread ID breaks ties
// so the order is total and deterministic.
func (k *Kernel) threadLess(a, b *Thread) bool {
	if a.vblocked != b.vblocked {
		return !a.vblocked
	}
	if a.vblocked {
		return a.blockedKey < b.blockedKey
	}
	if k.policy.Less(a, b) {
		return true
	}
	if k.policy.Less(b, a) {
		return false
	}
	return a.ID < b.ID
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// AssertOwns panics unless t belongs to this kernel. Kernel-path entry
// points that accept caller-supplied threads (futex wait and epoll wait)
// call it. Every machine of a fleet runs on one engine, so a thread handed
// to another machine's kernel — for example a request object captured by a
// closure on the wrong machine — would otherwise run silently on a
// runqueue it does not belong to; the check fails at the crossing instead.
func (k *Kernel) AssertOwns(t *Thread) {
	if t != nil && t.k != k {
		panic("sched: thread " + t.Name + " belongs to a different kernel: cross-machine state leak")
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// Costs returns the kernel's cost table.
func (k *Kernel) Costs() Costs { return k.costs }

// Features returns the kernel's feature set.
func (k *Kernel) Features() Features { return k.feat }

// MemModel returns the memory cost model.
func (k *Kernel) MemModel() *mem.Model { return k.memModel }

// Topology returns the machine topology.
func (k *Kernel) Topology() hw.Topology { return k.topo }

// AllowedCPUs returns the current cpuset size.
func (k *Kernel) AllowedCPUs() int { return k.nAllowed }

// Core exposes the architectural observables of CPU id (for BWD).
func (k *Kernel) Core(id int) *hw.Core { return k.cpus[id].core }

// Live returns the number of spawned, unfinished threads.
func (k *Kernel) Live() int { return int(k.live) }

// Rand returns the kernel's random source (distinct from the engine's).
func (k *Kernel) Rand() *sim.Rand { return k.rng }

// NumCPUs returns the number of logical CPUs the machine physically has
// (the snapshot width for samplers; AllowedCPUs returns the enabled set).
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// CPUSample is a point-in-time snapshot of one CPU's scheduler state, the
// per-CPU read surface of the Sampler hook.
type CPUSample struct {
	// Enabled reports whether the CPU is in the current cpuset.
	Enabled bool
	// Running reports whether a thread is current on the CPU.
	Running bool
	// Queued is the runqueue length, excluding the current thread.
	Queued int
	// Runnable is Queued plus the current thread — the load signal VB is
	// designed to keep stable.
	Runnable int
	// VBlocked is how many queued threads are virtually blocked.
	VBlocked int
	// SkipPending is how many queued threads still carry an armed BWD
	// skip flag (descheduled spinners waiting out their peers).
	SkipPending int
	// Busy is the CPU's cumulative busy time through now.
	Busy sim.Duration
}

// SampleCPU snapshots CPU id. It reads committed scheduler state only and
// never perturbs the run.
func (k *Kernel) SampleCPU(id int) CPUSample {
	c := k.cpus[id]
	s := CPUSample{
		Enabled:  c.enabled,
		Running:  c.curr != nil,
		Queued:   c.tree.Len(),
		Runnable: c.runnable(),
		VBlocked: c.nrBlocked,
		Busy:     c.busy,
	}
	if c.isBusy {
		s.Busy += k.eng.Now().Sub(c.busyMark)
	}
	for n := c.tree.Min(); n != nil; n = c.tree.Next(n) {
		if n.Value.skipUntil > c.dispatchSeq {
			s.SkipPending++
		}
	}
	return s
}

// TotalBusy sums the busy time of all CPUs up to now.
func (k *Kernel) TotalBusy() sim.Duration {
	var total sim.Duration
	now := k.eng.Now()
	for _, c := range k.cpus {
		total += c.busy
		if c.isBusy {
			total += now.Sub(c.busyMark)
		}
	}
	return total
}

// Spawn creates a thread running body and enqueues it. The body executes as
// a coroutine; it must only interact with the simulation through the Thread
// API and other simulated objects.
func (k *Kernel) Spawn(name string, body func(*Thread)) *Thread {
	t := &Thread{
		ID:        len(k.threads),
		Name:      name,
		k:         k,
		pinned:    -1,
		state:     StateNew,
		Profile:   hw.PaperMeanProfile(),
		spawnTime: k.eng.Now(),
	}
	t.req = request{kind: reqNew}
	t.proc = k.eng.NewProc(func(p *sim.Proc) { body(t) })
	k.threads = append(k.threads, t)
	k.live++
	if k.live == 1 {
		// Re-arm balance ticks for kernels reused across workload batches.
		for _, c := range k.cpus {
			if !c.balance.Active() {
				k.armBalance(c)
			}
		}
	}

	var target int
	if k.feat.Pinned {
		target = k.pinNext()
		t.pinned = target
	} else {
		target = k.idlestCPU(-1)
	}
	t.cpu = target
	c := k.cpus[target]
	t.vruntime = c.minV
	k.refreshDeadline(t)
	k.trace(target, t, "spawn", int64(target))
	k.enqueue(c, t)
	k.reschedule(c)
	return t
}

func (k *Kernel) pinNext() int {
	for range k.cpus {
		id := int(k.nextPin) % len(k.cpus)
		k.nextPin++
		if k.cpus[id].enabled {
			return id
		}
	}
	panic("sched: no enabled CPUs")
}

// idlestCPU returns the enabled CPU with the fewest eligible (non-blocked)
// runnable threads, preferring the node of prevCPU (-1 for no preference)
// and lower ids.
func (k *Kernel) idlestCPU(prevCPU int) int {
	best := -1
	bestLoad := int(^uint(0) >> 1)
	bestSameNode := false
	for _, c := range k.cpus {
		if !c.enabled {
			continue
		}
		load := c.eligible()
		sameNode := prevCPU >= 0 && k.topo.SameNode(c.id, prevCPU)
		if load < bestLoad || (load == bestLoad && sameNode && !bestSameNode) {
			best = c.id
			bestLoad = load
			bestSameNode = sameNode
		}
	}
	if best < 0 {
		panic("sched: no enabled CPUs")
	}
	return best
}

// wakeTarget chooses the wakeup CPU for t the way CFS does: the pinned
// CPU, t's previous CPU if idle, or the idlest allowed CPU preferring t's
// node.
func (k *Kernel) wakeTarget(t *Thread) int {
	if t.pinned >= 0 && k.cpus[t.pinned].enabled {
		return t.pinned
	}
	if prev := k.cpus[t.cpu]; prev.enabled && prev.curr == nil && prev.tree.Len() == 0 {
		return t.cpu
	}
	return k.idlestCPU(t.cpu)
}

// refreshDeadline starts a fresh EDF period for t: the absolute deadline
// becomes now + t's relative deadline (SchedLatency when unset). A wakeup,
// a VWake or a spawn is the job arrival that starts one.
func (k *Kernel) refreshDeadline(t *Thread) {
	rel := t.relDeadline
	if rel <= 0 {
		rel = k.costs.SchedLatency
	}
	t.deadline = k.eng.Now().Add(rel)
}

// enqueue inserts t into c's runqueue. The caller is responsible for
// migration accounting and vruntime placement.
func (k *Kernel) enqueue(c *cpu, t *Thread) {
	if t.node != nil {
		panic(fmt.Sprintf("sched: %v already enqueued", t))
	}
	t.cpu = c.id
	t.state = StateRunnable
	// Keys change before the tree insert: a fresh arrival stamp, and an
	// expired deadline postponed by one period (constant-bandwidth-server
	// style), so a slice-expired CPU hog re-enters behind live deadlines.
	k.arrivals++
	t.arrivalSeq = k.arrivals
	if t.deadline <= k.eng.Now() {
		k.refreshDeadline(t)
	}
	t.node = c.tree.Insert(t)
	if t.vblocked {
		c.nrBlocked++
	}
	k.trace(c.id, t, "enqueue", int64(c.tree.Len()))
	if c.vbIdle && !t.vblocked {
		k.exitVBIdle(c)
	}
}

// dequeue removes t from its runqueue.
func (k *Kernel) dequeue(t *Thread) {
	c := k.cpus[t.cpu]
	if t.node == nil {
		panic(fmt.Sprintf("sched: %v not enqueued", t))
	}
	c.tree.Delete(t.node)
	t.node = nil
	if t.vblocked {
		c.nrBlocked--
	}
}

// reschedule requests a dispatch pass on c at the current time, coalescing
// duplicates.
func (k *Kernel) reschedule(c *cpu) {
	if c.schedQueued {
		return
	}
	c.schedQueued = true
	k.eng.AfterCall(0, reschedCall, c, 0, 0)
}

// Package-level trampolines for AtCall/AfterCall: non-capturing functions
// whose state travels inline in the event node, keeping the kernel's hot
// scheduling paths free of per-event closure allocations.
func reschedCall(arg any, _, _ uint64) {
	c := arg.(*cpu)
	c.schedQueued = false
	c.k.schedule(c)
}

func overheadDoneCall(arg any, _, _ uint64) {
	c := arg.(*cpu)
	c.k.closeSegment(c)
	c.k.execute(c)
}

func finishRunCall(arg any, cpuID, epoch uint64) {
	t := arg.(*Thread)
	t.k.finishRun(t.k.cpus[cpuID], t, epoch)
}

func finishSpinCall(arg any, cpuID, epoch uint64) {
	t := arg.(*Thread)
	t.k.finishSpin(t.k.cpus[cpuID], t, epoch)
}

func finishSpinDeadlineCall(arg any, cpuID, epoch uint64) {
	t := arg.(*Thread)
	t.k.finishSpinDeadline(t.k.cpus[cpuID], t, epoch)
}

func timerWakeCall(arg any, _, _ uint64) {
	t := arg.(*Thread)
	t.k.timerWake(t)
}

func preemptNowCall(arg any, cpuID, _ uint64) {
	t := arg.(*Thread)
	t.k.preemptNow(t.k.cpus[cpuID], t)
}

// pickLeftmost returns the first eligible thread in c's tree order,
// honouring BWD skip flags; nil if only virtually blocked (or no) threads
// remain.
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

// schedule dispatches the next thread on c if it is not running one.
func (k *Kernel) schedule(c *cpu) {
	if !c.enabled || c.curr != nil {
		return
	}
	next := pickLeftmost(c)
	if next == nil {
		// Effectively idle (empty, or only virtually blocked threads):
		// try to pull real load from the busiest CPU first.
		if k.idlePull(c) {
			next = pickLeftmost(c)
		}
		if next == nil {
			if c.tree.Len() > 0 {
				// Every queued thread is virtually blocked: the CPU cycles
				// through them checking thread_state flags. We model the
				// cycle as busy time and impose its latency when a flag
				// clears.
				if !c.vbIdle {
					c.vbIdle = true
					c.markBusy(k.eng.Now())
				}
				return
			}
			c.vbIdle = false
			c.markIdle(k.eng.Now())
			return
		}
	}
	c.vbIdle = false
	k.dequeue(next)
	next.state = StateRunning
	c.curr = next
	c.currStart = k.eng.Now()
	c.dispatchSeq++
	c.markBusy(k.eng.Now())
	if next.vruntime > c.minV {
		c.minV = next.vruntime
	}
	if c.lastRan != next {
		c.overhead += k.costs.ContextSwitch + next.warm
		c.migPending += next.warm
		next.warm = 0
		if !next.Footprint.Zero() {
			c.overhead += k.memModel.PerSwitchCost(next.Footprint)
		}
	}
	c.lastRan = next
	k.trace(c.id, next, "dispatch", int64(c.eligible()))
	k.armSlice(c)
	k.execute(c)
}

// armSlice rearms the slice-expiry timer for the current thread with the
// policy's slice.
func (k *Kernel) armSlice(c *cpu) {
	c.slice.Rearm(k.policy.Tick(c, c.curr))
}

// speed returns the CPU-time-per-wall-time factor of c, reduced when its
// SMT sibling is busy. Siblings are enumerated arithmetically rather than
// through Topology.SiblingsOf, whose returned slice would be a per-segment
// allocation on the dispatch path.
func (k *Kernel) speed(c *cpu) float64 {
	tpc := k.topo.ThreadsPerCore
	if tpc < 2 {
		return 1
	}
	first := k.topo.CoreOf(c.id) * tpc
	for sib := first; sib < first+tpc; sib++ {
		if sib != c.id && k.cpus[sib].isBusy {
			return k.costs.SMTFactor
		}
	}
	return 1
}

// wallFor converts CPU time into wall time at c's current speed, rounding
// up so charged segments never undershoot.
func (k *Kernel) wallFor(c *cpu, d sim.Duration) sim.Duration {
	sp := k.speed(c)
	if sp >= 1 {
		return d
	}
	return sim.Duration(float64(d)/sp) + 1
}

// openSegment starts an accounting segment of the given kind.
func (k *Kernel) openSegment(c *cpu, kind segKind) {
	c.segStart = k.eng.Now()
	c.segSpeed = k.speed(c)
	c.segKind = kind
}

// closeSegment charges the open segment to the current thread and the
// core's observables.
func (k *Kernel) closeSegment(c *cpu) {
	if c.segKind == segNone {
		return
	}
	c.segEv.Cancel()
	c.segEv = sim.Event{}
	t := c.curr
	wall := k.eng.Now().Sub(c.segStart)
	cpuT := sim.Duration(float64(wall) * c.segSpeed)
	switch c.segKind {
	case segOverhead:
		c.overhead -= cpuT
		if c.overhead < 5 {
			c.overhead = 0
		}
		c.core.AccountCompute(cpuT, k.kernProfile, k.rng)
		if t != nil {
			t.vruntime += cpuT
			t.CPUTime += cpuT
		}
		if c.migPending > 0 && t != nil && cpuT > 0 {
			mig := c.migPending
			if mig > cpuT {
				mig = cpuT
			}
			c.migPending -= mig
			migWall := sim.Duration(float64(wall) * float64(mig) / float64(cpuT))
			if migWall > wall {
				migWall = wall
			}
			if migWall > 0 {
				k.trace(c.id, t, "mig-penalty", int64(migWall))
			}
		}
		if c.overhead == 0 {
			// The forgiveness clamp above may have swallowed the tail.
			c.migPending = 0
		}
	case segRun:
		t.req.remaining -= cpuT
		if t.req.remaining < 0 {
			t.req.remaining = 0
		}
		t.CPUTime += cpuT
		t.vruntime += cpuT
		c.core.AccountCompute(cpuT, t.Profile, k.rng)
	case segTight:
		t.req.remaining -= cpuT
		if t.req.remaining < 0 {
			t.req.remaining = 0
		}
		t.CPUTime += cpuT
		t.vruntime += cpuT
		c.core.AccountTightLoop(cpuT, tightBranchFor(t), t.req.loopIter)
	case segSpin:
		t.CPUTime += cpuT
		t.SpinTime += cpuT
		t.vruntime += cpuT
		c.core.AccountSpin(cpuT, t.req.sig)
		if wall > 0 {
			k.trace(c.id, t, "spin-seg", int64(wall))
		}
	case segNone:
		// Unreachable: filtered by the early return above; listed so the
		// switch stays exhaustive over segKind.
	}
	c.segKind = segNone
}

// tightBranchFor gives each thread's tight loops a stable synthetic address.
func tightBranchFor(t *Thread) hw.BranchRecord {
	base := 0x700000 + uint64(t.ID)*0x1000
	return hw.BranchRecord{From: base + 20, To: base}
}

// execute serves the current thread's pending request.
func (k *Kernel) execute(c *cpu) {
	t := c.curr
	if t == nil {
		return
	}
	if c.overhead > 0 {
		k.openSegment(c, segOverhead)
		c.segEv = k.eng.AfterCall(k.wallFor(c, c.overhead), overheadDoneCall, c, 0, 0)
		return
	}
	r := &t.req
	switch r.kind {
	case reqNew, reqYield, reqBlock, reqVBlock, reqSleep:
		// Directives take effect at park time; being dispatched again means
		// the wait is over. Resume the body for its next request.
		k.advance(c)
	case reqRun, reqTight:
		k.openSegment(c, segFor(r.kind))
		c.segEv = k.eng.AfterCall(k.wallFor(c, r.remaining), finishRunCall, t, uint64(c.id), r.epoch)
	case reqSpin:
		r.completing = false
		k.openSegment(c, segSpin)
		if r.cond() {
			k.armSpinExit(c, t)
			return
		}
		if r.deadline > 0 {
			now := k.eng.Now()
			wait := r.deadline.Sub(now)
			if wait < sim.Duration(k.costs.SpinExitLatency) {
				wait = sim.Duration(k.costs.SpinExitLatency)
			}
			c.segEv = k.eng.AfterCall(wait, finishSpinDeadlineCall, t, uint64(c.id), r.epoch)
		}
		// Otherwise the spin burns CPU until a Kick, slice expiry, or BWD.
	}
}

// finishRun completes a Run/RunTight request.
func (k *Kernel) finishRun(c *cpu, t *Thread, epoch uint64) {
	if c.curr != t || t.req.epoch != epoch {
		return
	}
	k.completeRun(c, t)
	k.advance(c)
}

// segFor gives the segment kind that serves a run or tight request.
func segFor(kind reqKind) segKind {
	if kind == reqTight {
		return segTight
	}
	return segRun
}

// completeRun charges the finished run or tight request of the current
// thread t.
func (k *Kernel) completeRun(c *cpu, t *Thread) {
	k.closeSegment(c)
	t.req.remaining = 0
}

// runInPlace serves the run or tight request of the current thread t without
// parking, when the request's completion would be the engine's next event.
// The body then continues at the completion instant with exactly the state
// the queued path gives it: execute's openSegment at the start, finishRun's
// completeRun at the end. That holds only while nothing else is pending on
// t's CPU (no open segment, no overhead, slice timer armed) and nothing in
// the kernel waits to run after the body parks again (not under
// SyncWindow); otherwise it reports false and the caller parks.
func (k *Kernel) runInPlace(t *Thread) bool {
	c := k.cpus[t.cpu]
	if k.syncing || c.curr != t || c.segKind != segNone || c.overhead > 0 || !c.slice.Active() {
		return false
	}
	k.openSegment(c, segFor(t.req.kind))
	if !k.eng.SkipTo(c.segStart.Add(k.wallFor(c, t.req.remaining))) {
		c.segKind = segNone
		return false
	}
	k.completeRun(c, t)
	return true
}

// finishSpin completes a spin whose condition was observed true.
func (k *Kernel) finishSpin(c *cpu, t *Thread, epoch uint64) {
	if c.curr != t || t.req.epoch != epoch || t.req.kind != reqSpin {
		return
	}
	if !t.req.cond() {
		// The condition flipped back (e.g. another spinner won the lock);
		// keep spinning.
		k.closeSegment(c)
		k.execute(c)
		return
	}
	k.closeSegment(c)
	k.advance(c)
}

// finishSpinDeadline ends a timed spin whose deadline passed; unlike
// finishSpin it completes regardless of the condition.
func (k *Kernel) finishSpinDeadline(c *cpu, t *Thread, epoch uint64) {
	if c.curr != t || t.req.epoch != epoch || t.req.kind != reqSpin {
		return
	}
	k.closeSegment(c)
	k.advance(c)
}

// Kick re-evaluates the spin conditions of threads currently spinning on a
// CPU. Word mutations call it automatically.
func (k *Kernel) Kick() {
	for _, c := range k.cpus {
		t := c.curr
		if t == nil || t.req.kind != reqSpin || t.req.completing || c.segKind != segSpin {
			continue
		}
		if t.req.cond() {
			k.armSpinExit(c, t)
		}
	}
}

// armSpinExit schedules the completion of the current thread t's spin on
// c, whose condition was just observed true, SpinExitLatency from now.
func (k *Kernel) armSpinExit(c *cpu, t *Thread) {
	t.req.completing = true
	c.segEv = k.spinExit.AfterCall(finishSpinCall, t, uint64(c.id), t.req.epoch)
}

// advance resumes the thread body to obtain its next request, then serves
// it (or handles exit/descheduling directives applied during the switch).
func (k *Kernel) advance(c *cpu) {
	t := c.curr
	t.proc.Switch()
	if t.proc.Finished() {
		k.exitThread(c, t)
		return
	}
	if c.curr != t {
		// The new request was a descheduling directive; the CPU was already
		// released inside applyDirective.
		return
	}
	// The slice timer can have been consumed by an expiry that coincided
	// with the previous request's completion; the thread must never run a
	// new request without one, or a spin would occupy the CPU forever.
	if !c.slice.Active() {
		k.armSlice(c)
	}
	k.execute(c)
}

// exitThread retires a finished thread.
func (k *Kernel) exitThread(c *cpu, t *Thread) {
	k.trace(c.id, t, "exit", 0)
	t.state = StateExited
	t.exitTime = k.eng.Now()
	c.curr = nil
	c.lastRan = nil
	c.slice.Stop()
	k.live--
	if k.live == 0 && k.stopWhenIdle {
		k.eng.Stop()
		return
	}
	c.markIdle(k.eng.Now())
	k.reschedule(c)
}

// applyDirective handles a freshly parked request that deschedules the
// thread. It runs on the proc goroutine, inside the engine's Switch window.
func (k *Kernel) applyDirective(t *Thread) {
	c := k.cpus[t.cpu]
	if c.curr != t {
		panic(fmt.Sprintf("sched: %v parked while not current", t))
	}
	switch t.req.kind {
	case reqRun, reqTight, reqSpin:
		// Timed requests are served by execute after the switch returns.
		return
	case reqYield:
		c.overhead += k.costs.SyscallEntry
		k.trace(c.id, t, "yield", 0)
		k.offCPU(c, t, true)
		k.enqueue(c, t)
		k.reschedule(c)
	case reqBlock:
		k.offCPU(c, t, true)
		t.state = StateSleeping
		k.trace(c.id, t, "block", t.req.blockArg)
		k.reschedule(c)
	case reqVBlock:
		k.offCPU(c, t, true)
		t.vblocked = true
		k.trace(c.id, t, "vblock", 0)
		c.blockedSeq++
		t.blockedKey = c.blockedSeq
		k.enqueue(c, t)
		k.reschedule(c)
	case reqSleep:
		k.offCPU(c, t, true)
		t.state = StateSleeping
		d := t.req.sleep
		k.trace(c.id, t, "sleep", int64(d))
		k.eng.AfterCall(d, timerWakeCall, t, 0, 0)
		k.reschedule(c)
	default:
		panic("sched: invalid parked request")
	}
}

// offCPU removes the current thread from c, counting the context switch.
func (k *Kernel) offCPU(c *cpu, t *Thread, voluntary bool) {
	if c.curr != t {
		panic("sched: offCPU of non-current thread")
	}
	k.closeSegment(c)
	c.slice.Stop()
	c.curr = nil
	if voluntary {
		t.VolCS++
		k.Metrics.VolCS++
	} else {
		t.InvolCS++
		k.Metrics.InvolCS++
	}
	c.markIdle(k.eng.Now())
}

// sliceExpire handles the end of the current thread's time slice.
func (k *Kernel) sliceExpire(c *cpu) {
	t := c.curr
	if t == nil {
		return
	}
	k.closeSegment(c)
	if t.req.kind == reqRun || t.req.kind == reqTight {
		if t.req.remaining <= 0 {
			// Completed exactly at the slice edge.
			k.advance(c)
			return
		}
	}
	// Kernel critical sections are not preemptible; renew and continue.
	if t.req.noPreempt {
		k.armSlice(c)
		k.execute(c)
		return
	}
	// Anyone else to run?
	if c.eligible() <= 1 && c.tree.Len() == c.nrBlocked {
		// Alone (or only blocked peers): renew the slice and continue.
		k.armSlice(c)
		k.execute(c)
		return
	}
	k.trace(c.id, t, "slice-end", 0)
	k.offCPU(c, t, false)
	k.enqueue(c, t)
	k.reschedule(c)
}

// Preempt forces the current thread of CPU id off, optionally setting the
// BWD skip flag so it is not rescheduled until its peers have each run.
// It is the action arm of busy-waiting detection and PLE.
func (k *Kernel) Preempt(cpuID int, skip bool) {
	c := k.cpus[cpuID]
	t := c.curr
	if t == nil || t.req.noPreempt {
		return
	}
	k.closeSegment(c)
	if skip {
		others := uint64(c.tree.Len() - c.nrBlocked)
		t.skipUntil = c.dispatchSeq + others
		t.BWDHits++
		k.Metrics.BWDDeschedules++
		k.trace(c.id, t, "bwd-deschedule", int64(others))
	} else {
		k.Metrics.PLEExits++
		k.trace(c.id, t, "ple-exit", 0)
	}
	k.offCPU(c, t, false)
	k.enqueue(c, t)
	k.reschedule(c)
}

// SyncWindow flushes the open accounting segment on a CPU so that the
// core's LBR and PMC state reflect all activity up to the current instant.
// Detector timers call it before reading the observables, mirroring how a
// real timer interrupt naturally samples committed architectural state.
func (k *Kernel) SyncWindow(cpuID int) {
	c := k.cpus[cpuID]
	if c.curr == nil || c.segKind == segNone {
		return
	}
	k.closeSegment(c)
	k.syncing = true
	k.execute(c)
	k.syncing = false
}

// CurrentlySpinning reports ground truth about CPU id for detector
// accounting (never used by detection logic itself): whether the running
// thread is busy-waiting (user or kernel spin) and whether its loop
// contains PAUSE.
func (k *Kernel) CurrentlySpinning(cpuID int) (spinning, hasPause bool) {
	c := k.cpus[cpuID]
	t := c.curr
	if t == nil || t.req.kind != reqSpin {
		return false, false
	}
	return true, t.req.sig.HasPause
}

// exitVBIdle schedules the dispatch that follows a flag clear while the CPU
// was cycling through virtually blocked threads. The latency models half a
// round of flag checks; the cycling itself is busy time.
func (k *Kernel) exitVBIdle(c *cpu) {
	if c.vbExitPending {
		return
	}
	c.vbExitPending = true
	lat := k.costs.FlagCheck * sim.Duration(c.nrBlocked/2+1)
	k.eng.AfterCall(lat, vbExitCall, c, 0, 0)
}

func vbExitCall(arg any, _, _ uint64) {
	c := arg.(*cpu)
	k := c.k
	c.vbExitPending = false
	c.vbIdle = false
	if c.curr == nil && c.tree.Len() == c.nrBlocked && c.tree.Len() > 0 {
		// Everything blocked again in the meantime.
		c.vbIdle = true
		return
	}
	if c.curr == nil {
		c.markIdle(k.eng.Now())
	}
	k.schedule(c)
}

// timerWake wakes a thread from a timed sleep: a cheap local wakeup from
// interrupt context (no waker thread to charge).
func (k *Kernel) timerWake(t *Thread) {
	if t.state != StateSleeping {
		return
	}
	target := t.cpu
	if !k.cpus[target].enabled || (t.pinned >= 0 && target != t.pinned) {
		target = k.wakeTarget(t)
	}
	c := k.cpus[target]
	k.placeWoken(c, t)
	k.checkPreempt(c, t, nil)
}

// placeWoken enqueues a woken thread on c with the sleeper bonus and
// migration accounting.
func (k *Kernel) placeWoken(c *cpu, t *Thread) {
	if !c.enabled {
		// The cpuset shrank while the waker was mid-path; retarget.
		c = k.cpus[k.idlestCPU(t.cpu)]
	}
	// The wake precedes the migrate and enqueue events it causes, so the
	// recorded stream reads wake -> migrate -> enqueue -> dispatch.
	k.trace(c.id, t, "wake", 0)
	if t.cpu != c.id {
		k.accountMigration(t, t.cpu, c.id)
	}
	k.refreshDeadline(t)
	floor := c.minV - k.costs.SleeperBonus
	if t.vruntime < floor {
		t.vruntime = floor
	}
	if t.vruntime > c.minV {
		t.vruntime = c.minV
	}
	k.enqueue(c, t)
	k.Metrics.Wakeups++
	if c.curr == nil {
		k.reschedule(c)
	}
}

func (k *Kernel) accountMigration(t *Thread, from, to int) {
	k.trace(from, t, "migrate", int64(to))
	if k.topo.SameNode(from, to) {
		k.Metrics.MigrationsInNode++
		t.warm += k.costs.MigrationInNode
	} else {
		k.Metrics.MigrationsCrossNode++
		t.warm += k.costs.MigrationCrossNode
	}
}

// checkPreempt decides whether freshly woken t preempts c's current thread
// under the given wakeup granularity. waker (nil for interrupt context) is
// charged the IPI cost.
func (k *Kernel) checkPreempt(c *cpu, t *Thread, waker *Thread) {
	k.checkPreemptGran(c, t, waker, k.costs.WakeupGranularity)
}

func (k *Kernel) checkPreemptGran(c *cpu, t *Thread, waker *Thread, gran sim.Duration) {
	curr := c.curr
	if curr == nil {
		k.reschedule(c)
		return
	}
	if curr == t || t.node == nil {
		return
	}
	if !k.policy.WakePreempts(c, curr, t, gran) {
		return
	}
	if waker != nil {
		waker.RunKernel(k.costs.PreemptIPI)
		if c.curr != curr {
			return // the target rescheduled while we paid the IPI cost
		}
	}
	// Wakeup preemption is immediate once the policy's test passes; the
	// minimum granularity gates only tick-driven preemption. (Under CFS a
	// thread that keeps being preempted retains its low vruntime and is
	// promptly rescheduled, so starvation is bounded.)
	k.eng.AtCall(k.eng.Now(), preemptNowCall, curr, uint64(c.id), 0)
}

// preemptNow forces curr off c if it is still running.
func (k *Kernel) preemptNow(c *cpu, curr *Thread) {
	if c.curr != curr {
		return
	}
	k.closeSegment(c)
	if (curr.req.kind == reqRun || curr.req.kind == reqTight) && curr.req.remaining <= 0 {
		k.advance(c)
		return
	}
	k.trace(c.id, curr, "preempt", 0)
	k.offCPU(c, curr, false)
	k.enqueue(c, curr)
	k.reschedule(c)
}

// WakeVanilla performs the full Linux wakeup path on behalf of waker:
// idlest-core selection, remote runqueue locking, enqueue, and the
// preemption check. The waker's CPU time is consumed at each step, which is
// what serializes bulk wakeups. t must be vanilla-blocked (StateSleeping).
func (k *Kernel) WakeVanilla(waker *Thread, t *Thread) {
	if t.state != StateSleeping {
		return
	}
	cost := k.costs.SelectCoreBase + k.costs.SelectCoreScan*sim.Duration(k.nAllowed)
	waker.RunKernel(cost)
	if t.state != StateSleeping {
		return // woken concurrently while we paid the selection cost
	}
	target := k.wakeTarget(t)
	c := k.cpus[target]
	c.lock.Lock(waker)
	waker.RunKernel(k.costs.RQLockHold + k.costs.Enqueue)
	if t.state == StateSleeping {
		k.placeWoken(c, t)
		c.lock.Unlock(waker)
		k.checkPreempt(c, t, waker)
	} else {
		c.lock.Unlock(waker)
	}
}

// WakeIRQ wakes a vanilla-blocked thread from interrupt context (e.g. a
// network receive): the wakeup costs are charged to the target CPU as
// kernel overhead rather than to a waker thread.
func (k *Kernel) WakeIRQ(t *Thread) {
	if t.state != StateSleeping {
		return
	}
	target := k.wakeTarget(t)
	c := k.cpus[target]
	c.overhead += k.costs.SelectCoreBase + k.costs.RQLockHold + k.costs.Enqueue
	k.placeWoken(c, t)
	k.checkPreempt(c, t, nil)
}

// VWake clears t's thread_state flag, restoring it to normal scheduling on
// its current runqueue — the virtual-blocking wakeup. waker is charged the
// (small) flag-clear cost; pass nil from interrupt context.
func (k *Kernel) VWake(waker *Thread, t *Thread) {
	if !t.vblocked {
		return
	}
	if waker != nil {
		waker.RunKernel(k.costs.VBWake)
		if !t.vblocked {
			return // another path cleared the flag meanwhile
		}
	}
	c := k.cpus[t.cpu]
	k.trace(c.id, t, "vwake", 0)
	k.dequeue(t)
	t.vblocked = false
	k.refreshDeadline(t)
	floor := c.minV - k.costs.SleeperBonus
	if t.vruntime < floor {
		t.vruntime = floor
	}
	k.enqueue(c, t)
	k.Metrics.VBWakes++
	if c.vbIdle {
		k.exitVBIdle(c)
		return
	}
	// The paper's scheduler change: threads waking from virtual blocking
	// are scheduled immediately, like prioritized real wakeups — a much
	// tighter granularity than ordinary wakeup preemption.
	k.checkPreemptGran(c, t, waker, k.costs.VBWakeGranularity)
}

// RunToCompletion runs the simulation until every spawned thread exits or
// the horizon passes (0 means no horizon). It returns an error if threads
// remain alive, which usually indicates a workload deadlock.
func (k *Kernel) RunToCompletion(horizon sim.Time) error {
	k.stopWhenIdle = true
	if k.live == 0 {
		return nil
	}
	k.eng.Run(horizon)
	if k.sampler != nil {
		// Flush the final (possibly partial) sampling window so short runs
		// — even shorter than one interval — still record their end state.
		// Samplers dedupe runs that end exactly on a tick.
		k.sampler.Sample(k, k.eng.Now())
	}
	if k.live > 0 {
		return fmt.Errorf("sched: %d threads still alive at %v", k.live, k.eng.Now())
	}
	return nil
}

// Threads returns every thread ever spawned on this kernel, in spawn order.
func (k *Kernel) Threads() []*Thread {
	out := make([]*Thread, len(k.threads))
	copy(out, k.threads)
	return out
}
