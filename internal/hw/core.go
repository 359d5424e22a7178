package hw

import (
	"oversub/internal/sim"
)

// LBREntries is the depth of the last-branch-record stack on the modelled
// platform (Intel Broadwell).
const LBREntries = 16

// BranchRecord is one LBR entry: the source and destination virtual address
// of a retired branch. Call/return branches are filtered out, as the paper
// configures.
type BranchRecord struct {
	From, To uint64
}

// Backward reports whether the branch jumps to a lower address, the shape of
// a loop's closing branch.
func (b BranchRecord) Backward() bool { return b.To < b.From }

// LBR models the 16-entry last-branch-record ring buffer of one core by
// what detectors read from it: the number of branches recorded since the
// last Clear, and the run of identical branches at the ring's tail. Varied
// records (ordinary control flow) are always forward branches, so their
// addresses never matter: one of them among the last LBREntries records is
// enough to make the ring not all-identical-backward.
type LBR struct {
	last  BranchRecord // the tail's repeated branch; zero after Clear or a varied record
	run   uint64       // trailing records equal to last
	total uint64       // branches recorded since the last Clear
}

// Clear empties the ring. BWD clears it at the start of each monitoring
// period.
func (l *LBR) Clear() { *l = LBR{} }

// RecordRepeated appends the same branch n times (a spin loop retiring n
// iterations) in O(1).
func (l *LBR) RecordRepeated(b BranchRecord, n uint64) {
	if n == 0 {
		return
	}
	if l.run > 0 && b == l.last {
		l.run += n
	} else {
		l.last, l.run = b, n
	}
	l.total += n
}

// RecordVaried appends n branches with distinct pseudo-random addresses
// (ordinary program control flow) in O(1). The addresses are never read,
// but the last LBREntries of them still consume two draws each, so rng's
// stream, which other kernel code shares, is that of a ring storing them.
func (l *LBR) RecordVaried(n uint64, rng *sim.Rand) {
	if n == 0 {
		return
	}
	rng.Skip(2 * min(n, LBREntries))
	l.last, l.run = BranchRecord{}, 0
	l.total += n
}

// Total returns the number of branches recorded since the last Clear.
func (l *LBR) Total() uint64 { return l.total }

// Full reports whether at least LBREntries branches were recorded since the
// last Clear — the "all 16 entries filled during the interval" heuristic.
func (l *LBR) Full() bool { return l.total >= LBREntries }

// AllIdenticalBackward reports whether every entry currently in the ring is
// the same backward branch — the spin-loop signature.
func (l *LBR) AllIdenticalBackward() bool {
	return l.run >= LBREntries && l.last.Backward()
}

// PMC models the performance-counter block BWD programs: retired
// instructions, L1d misses, dTLB misses, plus retired PAUSE instructions
// (the signal PLE/PF hardware watches).
type PMC struct {
	Instructions float64
	L1DMisses    uint64
	DTLBMisses   uint64
	PauseRetired uint64
}

// Clear zeroes all counters; BWD clears them each monitoring period.
func (p *PMC) Clear() { *p = PMC{} }

// ExecProfile describes the architectural footprint of a compute phase: how
// many instructions it retires per microsecond and how often those
// instructions miss in the L1d, the dTLB, and branch.
//
// A zero divisor disables that event (e.g. InstPerL1Miss = 0 means the phase
// never misses L1).
type ExecProfile struct {
	InstPerUS      float64
	InstPerL1Miss  float64
	InstPerTLBMiss float64
	InstPerBranch  float64
}

// PaperMeanProfile is the average the authors profiled across the 32 PARSEC,
// NPB, and SPLASH-2 benchmarks: 3000 instructions/µs, one L1d miss per 45
// instructions, one dTLB miss per 890 instructions.
func PaperMeanProfile() ExecProfile {
	return ExecProfile{InstPerUS: 3000, InstPerL1Miss: 45, InstPerTLBMiss: 890, InstPerBranch: 6}
}

// SpinSig describes a busy-wait loop implementation: the closing backward
// branch, the iteration latency, and whether the body executes PAUSE/NOP
// (which is what Intel PLE / AMD PF can see).
type SpinSig struct {
	Branch   BranchRecord
	IterNS   float64
	HasPause bool
}

// NewSpinSig builds a signature with a synthetic loop address.
func NewSpinSig(addr uint64, iterNS float64, hasPause bool) SpinSig {
	return SpinSig{
		Branch:   BranchRecord{From: addr + 24, To: addr},
		IterNS:   iterNS,
		HasPause: hasPause,
	}
}

// Core is the per-logical-CPU observable state.
type Core struct {
	ID  int
	LBR LBR
	PMC PMC
}

// NewCores allocates the observable state for n logical CPUs.
func NewCores(n int) []*Core {
	cores := make([]*Core, n)
	for i := range cores {
		cores[i] = &Core{ID: i}
	}
	return cores
}

// ClearWindow resets the LBR and PMCs, starting a new monitoring period.
func (c *Core) ClearWindow() {
	c.LBR.Clear()
	c.PMC.Clear()
}

// AccountCompute charges d of ordinary computation with footprint p to the
// core's counters. Miss counts use stochastic rounding so that short windows
// over low-rate profiles can legitimately observe zero events.
func (c *Core) AccountCompute(d sim.Duration, p ExecProfile, rng *sim.Rand) {
	us := d.Micros()
	inst := us * p.InstPerUS
	c.PMC.Instructions += inst
	c.PMC.L1DMisses += stochasticCount(inst, p.InstPerL1Miss, rng)
	c.PMC.DTLBMisses += stochasticCount(inst, p.InstPerTLBMiss, rng)
	if p.InstPerBranch > 0 {
		c.LBR.RecordVaried(uint64(inst/p.InstPerBranch), rng)
	}
}

// AccountTightLoop charges d of loop-like computation: identical backward
// branches and no cache/TLB misses. It is indistinguishable from spinning at
// the architectural level, which is exactly why BWD has false positives.
func (c *Core) AccountTightLoop(d sim.Duration, branch BranchRecord, iterNS float64) {
	if iterNS <= 0 {
		iterNS = 2
	}
	iters := uint64(float64(d) / iterNS)
	c.PMC.Instructions += float64(iters) * 4
	c.LBR.RecordRepeated(branch, iters)
}

// AccountSpin charges d of busy-waiting with signature sig.
func (c *Core) AccountSpin(d sim.Duration, sig SpinSig) {
	iterNS := sig.IterNS
	if iterNS <= 0 {
		iterNS = 4
	}
	iters := uint64(float64(d) / iterNS)
	c.PMC.Instructions += float64(iters) * 3
	if sig.HasPause {
		c.PMC.PauseRetired += iters
	}
	c.LBR.RecordRepeated(sig.Branch, iters)
}

// stochasticCount converts an expected event count inst/divisor into an
// integer with stochastic rounding of the fractional part.
func stochasticCount(inst, divisor float64, rng *sim.Rand) uint64 {
	if divisor <= 0 || inst <= 0 {
		return 0
	}
	expected := inst / divisor
	whole := uint64(expected)
	if rng.Float64() < expected-float64(whole) {
		whole++
	}
	return whole
}
