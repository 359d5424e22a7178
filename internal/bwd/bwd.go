// Package bwd implements the paper's busy-waiting detection (§3.2) and the
// Intel PLE baseline it is compared against.
//
// BWD arms a high-resolution timer on every core, firing every 100 us. The
// interrupt handler reads only architectural observables — the 16-entry
// last branch record stack and the PMCs counting L1d and dTLB misses — and
// declares spinning when, within the elapsed window:
//
//  1. at least 16 branches retired (the LBR filled),
//  2. every recorded branch is the same backward branch, and
//  3. there were zero L1d misses and zero dTLB misses.
//
// On detection the current thread is descheduled with a skip flag: it will
// not run again until every other thread on that core has been scheduled
// once. All LBR and PMC state is cleared at each period.
//
// The detector never consults scheduler ground truth to decide; ground
// truth is read only to classify each detection as a true or false
// positive for Table 2/Table 3 accounting.
//
// PLE (pause-loop exiting) is modelled as hardware that counts PAUSE
// retirement inside a VM: it can only see spin loops that execute PAUSE,
// and its response is a plain preemption (no skip flag) — which is why the
// paper finds it ineffective for general busy-waiting.
package bwd

import (
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// DefaultInterval is the paper's monitoring period: the smallest interval
// that imposes no noticeable overhead.
const DefaultInterval = 100 * sim.Microsecond

// Mode selects the detection mechanism.
type Mode int

const (
	// ModeOff runs without spin detection (vanilla): spinners burn their
	// full slice.
	ModeOff Mode = iota
	// ModeBWD is the paper's LBR+PMC detector.
	ModeBWD
	// ModePLE is the hardware pause-loop-exiting baseline (VMs only).
	ModePLE
)

// String names the mode as the CLIs print it.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeBWD:
		return "bwd"
	case ModePLE:
		return "ple"
	}
	return "?"
}

// Config tunes a Detector.
type Config struct {
	Mode     Mode
	Interval sim.Duration // 0 means DefaultInterval
	// PLEThreshold is the PAUSE executions per window that trigger a PLE
	// exit (the real hardware counts pause loops; the scale here matches a
	// window's worth of spinning).
	PLEThreshold uint64
	// NoSkip disables the skip flag on BWD deschedules (ablation): the
	// spinner is preempted but may be rescheduled immediately.
	NoSkip bool
}

// Stats counts detector activity. True/false positives are classified with
// scheduler ground truth for reporting only.
type Stats struct {
	Windows       uint64 // timer fires with a thread running
	Detections    uint64 // windows flagged as spinning
	TruePositive  uint64
	FalsePositive uint64
}

// Detector drives per-core detection timers over a simulated kernel.
type Detector struct {
	k       *sched.Kernel
	cfg     Config
	Stats   Stats
	stopped bool
	// timers holds one rearmable hrtimer per core, created on the first
	// Start; every subsequent window reuses its core's timer and closure.
	timers []*sim.Timer
}

// New builds a detector for kernel k. Call Start to arm it.
func New(k *sched.Kernel, cfg Config) *Detector {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.PLEThreshold == 0 {
		cfg.PLEThreshold = 4096
	}
	return &Detector{k: k, cfg: cfg}
}

// Start arms the per-core timers, staggered so cores do not all interrupt
// at the same instant.
func (d *Detector) Start() {
	d.stopped = false
	eng := d.k.Engine()
	n := d.k.Topology().NumCPUs()
	if d.timers == nil {
		d.timers = make([]*sim.Timer, n)
		for cpu := 0; cpu < n; cpu++ {
			cpu := cpu
			d.timers[cpu] = eng.Timer(func() { d.tick(cpu) })
		}
	}
	for cpu := 0; cpu < n; cpu++ {
		stagger := sim.Duration(cpu) * 7 * sim.Microsecond
		d.k.Core(cpu).ClearWindow()
		d.timers[cpu].Rearm(d.cfg.Interval + stagger)
	}
}

// Stop disarms the detector after the current events drain.
func (d *Detector) Stop() { d.stopped = true }

// tick is one timer interrupt on one core.
//
//simlint:hotpath
func (d *Detector) tick(cpu int) {
	if d.stopped {
		return
	}
	d.k.SyncWindow(cpu)
	core := d.k.Core(cpu)
	detected := false
	switch d.cfg.Mode {
	case ModeOff:
		// A detector that detects nothing still counts windows.
	case ModeBWD:
		detected = core.LBR.Full() &&
			core.LBR.AllIdenticalBackward() &&
			core.PMC.L1DMisses == 0 &&
			core.PMC.DTLBMisses == 0
	case ModePLE:
		detected = d.k.Features().VM && core.PMC.PauseRetired >= d.cfg.PLEThreshold
	}
	spinning, _ := d.k.CurrentlySpinning(cpu)
	if core.PMC.Instructions > 0 {
		d.Stats.Windows++
	}
	if detected {
		d.Stats.Detections++
		if spinning {
			d.Stats.TruePositive++
		} else {
			d.Stats.FalsePositive++
		}
		d.k.Preempt(cpu, d.cfg.Mode == ModeBWD && !d.cfg.NoSkip)
	}
	core.ClearWindow()
	d.timers[cpu].Rearm(d.cfg.Interval)
}

// Precision returns the fraction of detections that were genuine spinning.
// (The paper's per-algorithm sensitivity — detections over lock-acquisition
// attempts — is computed by the Table 2 harness, which knows the try
// count.)
func (s Stats) Precision() float64 {
	if s.Detections == 0 {
		return 0
	}
	return float64(s.TruePositive) / float64(s.Detections)
}

// FalsePositiveRate returns FP / windows observed.
func (s Stats) FalsePositiveRate() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.FalsePositive) / float64(s.Windows)
}
