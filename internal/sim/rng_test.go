package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sequences diverged at %d", i)
		}
	}
}

// TestNewRandHistoricalSequence pins NewRand's draw sequence as constants:
// if it ever changes, every golden artifact in the repo is invalidated, and
// this failure names the cause directly.
func TestNewRandHistoricalSequence(t *testing.T) {
	r := NewRand(7)
	want := []uint64{0x44c3cd7f43c661c, 0xe6984080bab12a02, 0x953aeb70673e29cb, 0x73d33b666a1e21da}
	for i, w := range want {
		if g := r.Uint64(); g != w {
			t.Fatalf("NewRand(7) draw %d = %#x, want %#x (historical splitmix64 sequence)", i, g, w)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds in 100 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Errorf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(6)
	sum, sumSq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("NormFloat64 mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("NormFloat64 variance = %v, want ~1", variance)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(7)
	d := Duration(1000)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(d, 0.25)
		if v < 750 || v > 1250 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
	if r.Jitter(d, 0) != d {
		t.Error("Jitter with f=0 should be identity")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(8)
	f := func(n uint8) bool {
		m := int(n % 64)
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(9)
	s1 := r.Split()
	// Draw extra values from r; s1's sequence must not change retroactively.
	want := make([]uint64, 10)
	s1Copy := NewRand(0)
	*s1Copy = *s1
	for i := range want {
		want[i] = s1Copy.Uint64()
	}
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	for i := range want {
		if got := s1.Uint64(); got != want[i] {
			t.Fatalf("split source perturbed by parent draws at %d", i)
		}
	}
}

func TestDurationDraw(t *testing.T) {
	r := NewRand(10)
	for i := 0; i < 1000; i++ {
		v := r.Duration(500)
		if v < 0 || v >= 500 {
			t.Fatalf("Duration out of range: %v", v)
		}
	}
	if r.Duration(0) != 0 {
		t.Error("Duration(0) should be 0")
	}
}
