// Package metrics is the simulator's deterministic time-series subsystem.
//
// The paper's evaluation (§4) reasons in time series — runqueue load over
// time (Fig. 5), tail-latency evolution under elastic cpuset resizes
// (Fig. 12), PMC-driven spin-detection windows (§3.2) — but aggregate
// counters (sched.Metrics) collapse a run to one point and full event
// traces (internal/trace) record everything. This package sits between: a
// Sampler registered with the kernel (sched.Kernel.SetSampler) snapshots
// scheduler and hardware state at a fixed sim-time interval (default
// 100 µs, the BWD hrtimer period) into fixed-capacity series with
// deterministic downsampling, exportable as CSV, JSON, or rendered ASCII
// sparkline summaries (export.go).
//
// Determinism contract: sampling is driven purely by virtual time, the
// hook only reads committed kernel state (no RNG draws, no event
// scheduling, no segment syncs), and downsampling is a pure function of
// the sample stream — so enabling metrics never perturbs a run, and two
// identical-seed runs export byte-identical series. The package is in
// simlint's simulation scope.
package metrics

import (
	"oversub/internal/hw"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// DefaultInterval is the default sampling period: 100 µs of sim time,
// matching the BWD high-resolution timer (§3.2).
const DefaultInterval = 100 * sim.Microsecond

// DefaultCapacity is the default ring capacity. When a run outgrows it,
// adjacent samples merge pairwise and the effective interval doubles, so
// long runs stay bounded at full time coverage.
const DefaultCapacity = 4096

// Config tunes a Sampler.
type Config struct {
	// Interval is the sim-time sampling period (0 = DefaultInterval).
	Interval sim.Duration
	// Capacity bounds the retained sample count (0 = DefaultCapacity;
	// rounded up to even so pairwise downsampling stays exact).
	Capacity int
}

// Sample is one sampling window: instantaneous gauges at its end plus
// counter deltas accumulated over it. Windows tile the run exactly —
// after downsampling a sample may span several base intervals, which is
// why every sample carries its own Window.
type Sample struct {
	// At is the window's end, in virtual time.
	At sim.Time `json:"at_ns"`
	// Window is the span the delta fields accumulate over.
	Window sim.Duration `json:"window_ns"`

	// Gauges (state at the window's end).

	// Runnable is the total runnable thread count, current included —
	// virtually blocked threads count, that being the point of VB.
	Runnable int `json:"runnable"`
	// RunningCPUs is how many CPUs have a current thread.
	RunningCPUs int `json:"running_cpus"`
	// VBlocked is the total virtually blocked thread count.
	VBlocked int `json:"vblocked"`
	// SkipPending counts queued threads with armed BWD skip flags.
	SkipPending int `json:"skip_pending"`
	// SpinCPUs is how many CPUs' current LBR+PMC window shows the BWD
	// spin signature (ring full of one backward branch, zero L1d and
	// dTLB misses) at the sampling instant.
	SpinCPUs int `json:"spin_cpus"`

	// UtilPct is the busy fraction over the window in percent-of-one-CPU
	// units summed over the machine (800 = eight fully busy CPUs), the
	// convention Table 1 reports.
	UtilPct float64 `json:"util_pct"`

	// Counter deltas over the window (kernel Metrics deltas).

	Wakeups        uint64 `json:"wakeups"`
	VBWakes        uint64 `json:"vbwakes"`
	Migrations     uint64 `json:"migrations"`
	BWDDeschedules uint64 `json:"bwd_deschedules"`
	VolCS          uint64 `json:"vol_cs"`
	InvolCS        uint64 `json:"invol_cs"`
	FutexWaits     uint64 `json:"futex_waits"`
	FutexWakes     uint64 `json:"futex_wakes"`

	// PMC deltas summed over all cores. The counters are cleared by an
	// active BWD/PLE detector each monitoring period, so deltas saturate
	// at the current reading when a clear intervened (a deterministic
	// undercount, documented rather than hidden).
	L1DMisses  uint64 `json:"l1d_misses"`
	DTLBMisses uint64 `json:"dtlb_misses"`

	// Per-CPU gauges, indexed by logical CPU id.

	// PerCPUQueue is each CPU's runnable count (current included).
	PerCPUQueue []int `json:"rq_per_cpu"`
	// PerCPUUtil is each CPU's busy percentage (0–100) over the window.
	PerCPUUtil []float64 `json:"util_per_cpu"`
}

// Sampler records kernel state snapshots at a fixed sim-time interval.
// Register it with sched.Kernel.SetSampler (or a workload config's
// Sampler field); the kernel drives the ticks and flushes the final
// partial window at run end. A Sampler is single-run, single-goroutine
// state — like an engine, it must not be shared across parallel runs.
type Sampler struct {
	interval sim.Duration
	capacity int

	// policy is the sampled kernel's scheduling-policy name, captured on
	// the first snapshot and carried into the JSON export envelope.
	policy string

	samples []Sample
	stride  int // base intervals per stored sample (doubles on overflow)
	acc     Sample
	accN    int

	lastAt sim.Time // last observed tick (dedupes the final flush)

	// Previous cumulative readings, for deltas.
	prevAt      sim.Time
	prevMetrics sched.Metrics
	prevBusy    []sim.Duration
	prevL1D     []uint64
	prevDTLB    []uint64
}

// NewSampler builds a sampler. The zero Config selects the 100 µs BWD
// interval and the default capacity.
func NewSampler(cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Capacity%2 != 0 {
		cfg.Capacity++
	}
	return &Sampler{interval: cfg.Interval, capacity: cfg.Capacity, stride: 1}
}

// SampleInterval implements sched.Sampler.
func (s *Sampler) SampleInterval() sim.Duration { return s.interval }

// Policy returns the sampled kernel's scheduling-policy name, or "" before
// the first snapshot.
func (s *Sampler) Policy() string { return s.policy }

// Len returns the number of retained samples (pending partial buckets
// excluded until Samples flushes them).
func (s *Sampler) Len() int {
	n := len(s.samples)
	if s.accN > 0 {
		n++
	}
	return n
}

// Samples returns the recorded series, oldest first. A partially
// accumulated downsampling bucket is flushed as a trailing sample so the
// windows always tile the observed span exactly.
func (s *Sampler) Samples() []Sample {
	out := make([]Sample, 0, s.Len())
	out = append(out, s.samples...)
	if s.accN > 0 {
		out = append(out, s.acc)
	}
	return out
}

// Sample implements sched.Sampler: it snapshots the kernel and appends
// one window. The final flush of a run that ended exactly on a tick
// repeats the timestamp; such duplicates are dropped here.
func (s *Sampler) Sample(k *sched.Kernel, at sim.Time) {
	if s.policy == "" {
		s.policy = k.PolicyName()
	}
	if at == s.lastAt && (len(s.samples) > 0 || s.accN > 0) {
		return // run ended exactly on a window boundary; already recorded
	}
	ncpu := k.NumCPUs()
	if s.prevBusy == nil {
		s.prevBusy = make([]sim.Duration, ncpu)
		s.prevL1D = make([]uint64, ncpu)
		s.prevDTLB = make([]uint64, ncpu)
	}
	window := at.Sub(s.prevAt)
	if window <= 0 {
		return
	}
	sm := Sample{
		At:          at,
		Window:      window,
		PerCPUQueue: make([]int, ncpu),
		PerCPUUtil:  make([]float64, ncpu),
	}
	for i := 0; i < ncpu; i++ {
		cs := k.SampleCPU(i)
		sm.PerCPUQueue[i] = cs.Runnable
		busyDelta := cs.Busy - s.prevBusy[i]
		if busyDelta < 0 {
			busyDelta = 0
		}
		util := float64(busyDelta) / float64(window) * 100
		sm.PerCPUUtil[i] = util
		sm.UtilPct += util
		s.prevBusy[i] = cs.Busy

		sm.Runnable += cs.Runnable
		if cs.Running {
			sm.RunningCPUs++
		}
		sm.VBlocked += cs.VBlocked
		sm.SkipPending += cs.SkipPending

		core := k.Core(i)
		sm.L1DMisses += counterDelta(core.PMC.L1DMisses, &s.prevL1D[i])
		sm.DTLBMisses += counterDelta(core.PMC.DTLBMisses, &s.prevDTLB[i])
		if spinVerdict(core) {
			sm.SpinCPUs++
		}
	}
	m := k.Metrics
	p := s.prevMetrics
	sm.Wakeups = m.Wakeups - p.Wakeups
	sm.VBWakes = m.VBWakes - p.VBWakes
	sm.Migrations = (m.MigrationsInNode + m.MigrationsCrossNode) - (p.MigrationsInNode + p.MigrationsCrossNode)
	sm.BWDDeschedules = m.BWDDeschedules - p.BWDDeschedules
	sm.VolCS = m.VolCS - p.VolCS
	sm.InvolCS = m.InvolCS - p.InvolCS
	sm.FutexWaits = m.FutexWaits - p.FutexWaits
	sm.FutexWakes = m.FutexWakes - p.FutexWakes
	s.prevMetrics = m
	s.prevAt = at
	s.lastAt = at
	s.append(sm)
}

// counterDelta returns cur minus the previous reading, saturating at cur
// when the counter was cleared in between (an active detector clears PMCs
// every monitoring period), and stores cur as the new baseline.
func counterDelta(cur uint64, prev *uint64) uint64 {
	d := cur - *prev
	if cur < *prev {
		d = cur
	}
	*prev = cur
	return d
}

// spinVerdict applies the BWD spin predicate (§3.2) to a core's current
// architectural window: LBR full of one repeated backward branch, and no
// L1d or dTLB misses.
func spinVerdict(c *hw.Core) bool {
	return c.LBR.Full() &&
		c.LBR.AllIdenticalBackward() &&
		c.PMC.L1DMisses == 0 &&
		c.PMC.DTLBMisses == 0
}

// append stores one base-interval sample, accumulating through the
// current downsampling stride and halving resolution when the ring fills.
func (s *Sampler) append(sm Sample) {
	if s.accN == 0 {
		s.acc = sm
	} else {
		s.acc = mergeSamples(s.acc, sm)
	}
	s.accN++
	if s.accN < s.stride {
		return
	}
	s.samples = append(s.samples, s.acc)
	s.acc = Sample{}
	s.accN = 0
	if len(s.samples) >= s.capacity {
		s.downsample()
	}
}

// downsample merges adjacent sample pairs in place, halving the retained
// count and doubling the accumulation stride. Windows add exactly, so the
// series still tiles the run; gauges keep the later sample's values and
// rates stay window-weighted. Deterministic: a pure function of the
// stream.
func (s *Sampler) downsample() {
	half := len(s.samples) / 2
	for i := 0; i < half; i++ {
		s.samples[i] = mergeSamples(s.samples[2*i], s.samples[2*i+1])
	}
	// An odd trailing sample (capacity is even, but be safe) is carried
	// into the accumulator as a partial bucket.
	if len(s.samples)%2 == 1 {
		last := s.samples[len(s.samples)-1]
		if s.accN == 0 {
			s.acc = last
		} else {
			s.acc = mergeSamples(last, s.acc)
		}
		s.accN++ // approximate: counts as one base interval of the new stride
	}
	s.samples = s.samples[:half]
	s.stride *= 2
}

// mergeSamples combines two adjacent windows: deltas sum, gauges take the
// later window's instantaneous values, utilizations average weighted by
// window length.
func mergeSamples(a, b Sample) Sample {
	out := b
	total := a.Window + b.Window
	out.Window = total
	if total > 0 {
		wa := float64(a.Window) / float64(total)
		wb := float64(b.Window) / float64(total)
		out.UtilPct = a.UtilPct*wa + b.UtilPct*wb
		out.PerCPUUtil = make([]float64, len(b.PerCPUUtil))
		for i := range out.PerCPUUtil {
			av := 0.0
			if i < len(a.PerCPUUtil) {
				av = a.PerCPUUtil[i]
			}
			out.PerCPUUtil[i] = av*wa + b.PerCPUUtil[i]*wb
		}
	}
	out.Wakeups = a.Wakeups + b.Wakeups
	out.VBWakes = a.VBWakes + b.VBWakes
	out.Migrations = a.Migrations + b.Migrations
	out.BWDDeschedules = a.BWDDeschedules + b.BWDDeschedules
	out.VolCS = a.VolCS + b.VolCS
	out.InvolCS = a.InvolCS + b.InvolCS
	out.FutexWaits = a.FutexWaits + b.FutexWaits
	out.FutexWakes = a.FutexWakes + b.FutexWakes
	out.L1DMisses = a.L1DMisses + b.L1DMisses
	out.DTLBMisses = a.DTLBMisses + b.DTLBMisses
	return out
}
