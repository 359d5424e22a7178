package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"oversub/internal/sim"
)

func TestLatencyBasics(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Add(sim.Duration(i))
	}
	if l.Count() != 100 {
		t.Fatalf("Count = %d", l.Count())
	}
	if got := l.Mean(); got != 50 { // (1+..+100)/100 = 50.5 truncated
		t.Errorf("Mean = %v, want 50", got)
	}
	if got := l.Percentile(50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := l.Percentile(95); got != 95 {
		t.Errorf("p95 = %v, want 95", got)
	}
	if got := l.Percentile(99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if l.Min() != 1 || l.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", l.Min(), l.Max())
	}
}

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Percentile(99) != 0 || l.Min() != 0 || l.Max() != 0 {
		t.Error("empty latency should report zeros")
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	var l Latency
	for _, v := range []sim.Duration{50, 10, 90, 30, 70} {
		l.Add(v)
	}
	if got := l.Percentile(100); got != 90 {
		t.Errorf("p100 = %v, want 90", got)
	}
	l.Add(95)
	if got := l.Percentile(100); got != 95 {
		t.Errorf("p100 after new sample = %v, want 95", got)
	}
}

func TestPercentileClampsOutOfContract(t *testing.T) {
	// p <= 0 and p > 100 are out of the documented contract but must clamp
	// to the extreme ranks instead of panicking or indexing out of range.
	var l Latency
	for _, v := range []sim.Duration{30, 10, 20} {
		l.Add(v)
	}
	if got := l.Percentile(0); got != 10 {
		t.Errorf("p0 = %v, want smallest sample 10", got)
	}
	if got := l.Percentile(-5); got != 10 {
		t.Errorf("p-5 = %v, want smallest sample 10", got)
	}
	if got := l.Percentile(150); got != 30 {
		t.Errorf("p150 = %v, want largest sample 30", got)
	}
}

func TestPercentileSingleSample(t *testing.T) {
	var l Latency
	l.Add(42)
	for _, p := range []float64{0, 1, 50, 100, 200} {
		if got := l.Percentile(p); got != 42 {
			t.Errorf("p%v of single sample = %v, want 42", p, got)
		}
	}
}

// Property: percentile matches a naive reference on random inputs.
func TestPercentileMatchesReference(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := float64(pRaw%100) + 1
		var l Latency
		ref := make([]int, len(raw))
		for i, v := range raw {
			l.Add(sim.Duration(v))
			ref[i] = int(v)
		}
		sort.Ints(ref)
		rank := int(math.Ceil(p / 100 * float64(len(ref))))
		if rank < 1 {
			rank = 1
		}
		return l.Percentile(p) == sim.Duration(ref[rank-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeriesMoments(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Stddev(); math.Abs(got-2.138) > 0.01 {
		t.Errorf("Stddev = %v, want ~2.138", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSeriesDegenerate(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Stddev() != 0 {
		t.Error("empty series should report zeros")
	}
	s.Add(3)
	if s.Stddev() != 0 {
		t.Error("single sample stddev should be 0")
	}
}
