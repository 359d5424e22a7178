package hw

import (
	"testing"
	"testing/quick"

	"oversub/internal/sim"
)

func TestTopologyNumbering(t *testing.T) {
	top := Topology{Sockets: 2, CoresPerSocket: 4, ThreadsPerCore: 2}
	if got := top.NumCPUs(); got != 16 {
		t.Fatalf("NumCPUs = %d, want 16", got)
	}
	if top.NodeOf(0) != 0 || top.NodeOf(7) != 0 || top.NodeOf(8) != 1 || top.NodeOf(15) != 1 {
		t.Error("NodeOf wrong for socket-major numbering")
	}
	if top.CoreOf(0) != 0 || top.CoreOf(1) != 0 || top.CoreOf(2) != 1 {
		t.Error("CoreOf wrong: SMT siblings must be adjacent")
	}
	sib := top.SiblingsOf(3)
	if len(sib) != 2 || sib[0] != 2 || sib[1] != 3 {
		t.Errorf("SiblingsOf(3) = %v, want [2 3]", sib)
	}
	if !top.SameNode(0, 7) || top.SameNode(7, 8) {
		t.Error("SameNode wrong")
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 1}).Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
	if err := (Topology{}).Validate(); err == nil {
		t.Error("zero topology accepted")
	}
}

func TestPaperGeometry(t *testing.T) {
	g := PaperCaches()
	if g.TLB1Reach() != 256<<10 {
		t.Errorf("TLB1 reach = %d, want 256KB", g.TLB1Reach())
	}
	if g.TLB2Reach() != 6<<20 {
		t.Errorf("TLB2 reach = %d, want 6MB", g.TLB2Reach())
	}
	top := PaperTopology(2)
	if top.NumCPUs() != 72 {
		t.Errorf("paper topology = %d logical CPUs, want 72", top.NumCPUs())
	}
}

func TestLBRSpinSignature(t *testing.T) {
	var l LBR
	sig := NewSpinSig(0x401000, 4, false)
	if !sig.Branch.Backward() {
		t.Fatal("spin signature branch is not backward")
	}
	l.RecordRepeated(sig.Branch, 100)
	if !l.Full() {
		t.Error("100 spin iterations should fill the LBR")
	}
	if !l.AllIdenticalBackward() {
		t.Error("pure spin window should be all identical backward branches")
	}
}

func TestLBRMixedWindowNotSpin(t *testing.T) {
	var l LBR
	rng := sim.NewRand(1)
	sig := NewSpinSig(0x401000, 4, false)
	l.RecordRepeated(sig.Branch, 100)
	l.RecordVaried(3, rng) // a few ordinary branches at the end of the window
	if l.AllIdenticalBackward() {
		t.Error("window ending in ordinary branches must not look like spin")
	}
}

func TestLBRSpinAfterComputeLooksLikeSpin(t *testing.T) {
	// Compute early in the window then >=16 spin iterations: the ring only
	// holds the last 16 branches, so the window reads as spinning. The PMC
	// miss counters are what save BWD here.
	var l LBR
	rng := sim.NewRand(1)
	l.RecordVaried(1000, rng)
	l.RecordRepeated(NewSpinSig(0x88, 4, false).Branch, 16)
	if !l.AllIdenticalBackward() {
		t.Error("16 trailing spin iterations should dominate the ring")
	}
}

func TestLBRNotFullFewIterations(t *testing.T) {
	var l LBR
	l.Clear()
	l.RecordRepeated(NewSpinSig(0x88, 4, false).Branch, 10)
	if l.Full() {
		t.Error("10 branches should not fill a 16-entry LBR")
	}
}

func TestLBRClear(t *testing.T) {
	var l LBR
	l.RecordRepeated(NewSpinSig(0x88, 4, false).Branch, 50)
	l.Clear()
	if l.Full() || l.Total() != 0 {
		t.Error("Clear did not reset the window")
	}
	if l.AllIdenticalBackward() {
		t.Error("cleared ring (zero records, forward) must not look like spin")
	}
}

// refLBR is the 16-entry ring the LBR model replaced: every record stored,
// varied addresses drawn from rng. It is the oracle for the O(1) model.
type refLBR struct {
	entries [LBREntries]BranchRecord
	pos     int
	total   uint64
}

func (l *refLBR) clear() { *l = refLBR{} }

func (l *refLBR) recordRepeated(b BranchRecord, n uint64) {
	for i := uint64(0); i < n && i < LBREntries; i++ {
		l.entries[l.pos] = b
		l.pos = (l.pos + 1) % LBREntries
	}
	l.total += n
}

func (l *refLBR) recordVaried(n uint64, rng *sim.Rand) {
	for i := uint64(0); i < n && i < LBREntries; i++ {
		from := 0x400000 + rng.Uint64()%0x100000
		l.entries[l.pos] = BranchRecord{From: from, To: from + 32 + rng.Uint64()%512}
		l.pos = (l.pos + 1) % LBREntries
	}
	l.total += n
}

func (l *refLBR) allIdenticalBackward() bool {
	for _, e := range l.entries {
		if e != l.entries[0] || !e.Backward() {
			return false
		}
	}
	return true
}

// TestLBRMatchesReferenceRing drives the LBR and the reference ring through
// the same random sequences of RecordRepeated, RecordVaried and Clear. Full,
// Total and AllIdenticalBackward must agree after every step, and the two
// RNGs must stay in lockstep.
func TestLBRMatchesReferenceRing(t *testing.T) {
	branches := []BranchRecord{
		NewSpinSig(0x401000, 4, false).Branch,
		NewSpinSig(0x402000, 4, true).Branch,
		{From: 0x500000, To: 0x500040}, // forward
		{},                             // the zero record a cleared ring holds
	}
	for seed := uint64(1); seed <= 50; seed++ {
		drive := sim.NewRand(seed)
		rngA, rngB := sim.NewRand(seed+100), sim.NewRand(seed+100)
		var got LBR
		var ref refLBR
		for step := 0; step < 200; step++ {
			n := drive.Uint64() % 24
			switch drive.Intn(5) {
			case 0, 1:
				b := branches[drive.Intn(len(branches))]
				got.RecordRepeated(b, n)
				ref.recordRepeated(b, n)
			case 2, 3:
				got.RecordVaried(n/4, rngA)
				ref.recordVaried(n/4, rngB)
			case 4:
				got.Clear()
				ref.clear()
			}
			if got.Full() != (ref.total >= LBREntries) || got.Total() != ref.total ||
				got.AllIdenticalBackward() != ref.allIdenticalBackward() {
				t.Fatalf("seed %d step %d: LBR (full=%v total=%d spin=%v), ring (total=%d spin=%v)",
					seed, step, got.Full(), got.Total(), got.AllIdenticalBackward(),
					ref.total, ref.allIdenticalBackward())
			}
		}
		if rngA.Uint64() != rngB.Uint64() {
			t.Fatalf("seed %d: RecordVaried consumed a different number of draws", seed)
		}
	}
}

func TestAccountComputeMissRates(t *testing.T) {
	c := &Core{}
	rng := sim.NewRand(2)
	p := PaperMeanProfile()
	// 100 µs window at paper rates: ~6667 L1 misses, ~337 TLB misses.
	c.AccountCompute(100*sim.Microsecond, p, rng)
	if c.PMC.Instructions < 299000 || c.PMC.Instructions > 301000 {
		t.Errorf("instructions = %v, want ~300000", c.PMC.Instructions)
	}
	if c.PMC.L1DMisses < 6000 || c.PMC.L1DMisses > 7500 {
		t.Errorf("L1 misses = %d, want ~6667", c.PMC.L1DMisses)
	}
	if c.PMC.DTLBMisses < 300 || c.PMC.DTLBMisses > 380 {
		t.Errorf("TLB misses = %d, want ~337", c.PMC.DTLBMisses)
	}
	if !c.LBR.Full() {
		t.Error("100us of compute should fill the LBR")
	}
	if c.LBR.AllIdenticalBackward() {
		t.Error("ordinary compute must not look like spin")
	}
}

func TestAccountSpinNoMisses(t *testing.T) {
	c := &Core{}
	sig := NewSpinSig(0x500000, 4, true)
	c.AccountSpin(100*sim.Microsecond, sig)
	if c.PMC.L1DMisses != 0 || c.PMC.DTLBMisses != 0 {
		t.Error("spin must not generate cache/TLB misses")
	}
	if c.PMC.PauseRetired == 0 {
		t.Error("PAUSE-based spin must retire PAUSE instructions")
	}
	if !c.LBR.Full() || !c.LBR.AllIdenticalBackward() {
		t.Error("spin window should show the full identical-backward signature")
	}
}

func TestAccountSpinWithoutPause(t *testing.T) {
	c := &Core{}
	c.AccountSpin(50*sim.Microsecond, NewSpinSig(0x500000, 4, false))
	if c.PMC.PauseRetired != 0 {
		t.Error("plain test-loop spin must not retire PAUSE")
	}
}

func TestAccountTightLoop(t *testing.T) {
	c := &Core{}
	b := BranchRecord{From: 0x600018, To: 0x600000}
	c.AccountTightLoop(100*sim.Microsecond, b, 2)
	if c.PMC.L1DMisses != 0 || c.PMC.DTLBMisses != 0 {
		t.Error("tight loop must be miss-free")
	}
	if !c.LBR.AllIdenticalBackward() || !c.LBR.Full() {
		t.Error("tight loop should be architecturally indistinguishable from spin")
	}
}

func TestClearWindow(t *testing.T) {
	c := &Core{}
	rng := sim.NewRand(3)
	c.AccountCompute(10*sim.Microsecond, PaperMeanProfile(), rng)
	c.ClearWindow()
	if c.PMC.Instructions != 0 || c.PMC.L1DMisses != 0 || c.LBR.Total() != 0 {
		t.Error("ClearWindow did not reset observables")
	}
}

func TestStochasticCountUnbiased(t *testing.T) {
	rng := sim.NewRand(4)
	var total uint64
	const trials = 100000
	for i := 0; i < trials; i++ {
		total += stochasticCount(10, 4, rng) // expected 2.5
	}
	mean := float64(total) / trials
	if mean < 2.45 || mean > 2.55 {
		t.Errorf("stochastic rounding mean = %v, want ~2.5", mean)
	}
	if stochasticCount(100, 0, rng) != 0 {
		t.Error("zero divisor must produce zero events")
	}
}

// Property: node/core numbering is a partition — every CPU belongs to
// exactly one node, siblings share cores, and counts add up.
func TestTopologyPartitionProperty(t *testing.T) {
	f := func(s, c, smt uint8) bool {
		top := Topology{
			Sockets:        int(s%4) + 1,
			CoresPerSocket: int(c%8) + 1,
			ThreadsPerCore: int(smt%2) + 1,
		}
		perNode := make(map[int]int)
		for cpu := 0; cpu < top.NumCPUs(); cpu++ {
			perNode[top.NodeOf(cpu)]++
			sib := top.SiblingsOf(cpu)
			found := false
			for _, x := range sib {
				if x == cpu {
					found = true
				}
				if top.CoreOf(x) != top.CoreOf(cpu) {
					return false
				}
			}
			if !found {
				return false
			}
		}
		if len(perNode) != top.Sockets {
			return false
		}
		for _, n := range perNode {
			if n != top.CoresPerSocket*top.ThreadsPerCore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
