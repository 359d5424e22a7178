package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"oversub/internal/sim"
)

// jsonEnvelope is the document WriteJSON wrote through encoding/json
// before it formatted by hand. It and refWriteJSON are the reference the
// hand-written writer must match byte for byte.
type jsonEnvelope struct {
	Schema     string       `json:"schema"`
	IntervalNS sim.Duration `json:"interval_ns"`
	Policy     string       `json:"policy,omitempty"`
	Samples    []Sample     `json:"samples"`
}

func refWriteJSON(s *Sampler, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonEnvelope{
		Schema:     SeriesSchema,
		IntervalNS: s.interval,
		Policy:     s.policy,
		Samples:    s.Samples(),
	})
}

// edgeFloats are the values where encoding/json's float formatting
// changes shape: the 'f'/'e' cutoffs at 1e-6 and 1e21, the e-07 -> e-7
// cleanup, signed zero, 16- and 17-digit fractions, and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 100, 800, 12.5, 99.99999999999999,
	0.1, 1.0 / 3, 2.0 / 3, 0.1234567890123456, 123456.78901234567,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 9.99999e-7, -1e-6,
	1e-7, 1.5e-7, 1e-10, 1e-100, 5e-324, 2.2250738585072014e-308,
	1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, 2e21), -1e21,
	1.5e21, 1e100, 1e300, -1e300,
}

// edgeStrings exercise every escape class of a JSON string.
var edgeStrings = []string{
	"", "cfs", "shinjuku", `a"b\c`, "<tag>&amp;", "tab\there\nnl\rcr\bbs\fff",
	"\x00\x01\x1f\x7f", "é✓", "line\u2028para\u2029", "bad\xffutf8\xc3", "\xe2\x80",
}

// randFloat draws an edge value half the time, else a random magnitude
// across the whole exponent range.
func randFloat(rng *sim.Rand) float64 {
	if rng.Intn(2) == 0 {
		return edgeFloats[rng.Intn(len(edgeFloats))]
	}
	f := rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
	if rng.Intn(4) == 0 {
		f = -f
	}
	return f
}

// randSample draws a sample with the given per-CPU width; a negative
// width leaves both per-CPU slices nil.
func randSample(rng *sim.Rand, ncpu int) Sample {
	sm := Sample{
		At:             sim.Time(rng.Uint64() >> rng.Intn(64)),
		Window:         sim.Duration(rng.Intn(1 << 20)),
		Runnable:       rng.Intn(100) - 10,
		RunningCPUs:    rng.Intn(64),
		VBlocked:       rng.Intn(64),
		SkipPending:    rng.Intn(4),
		SpinCPUs:       rng.Intn(4),
		UtilPct:        randFloat(rng),
		Wakeups:        rng.Uint64() >> rng.Intn(64),
		VBWakes:        rng.Uint64(),
		Migrations:     uint64(rng.Intn(10)),
		BWDDeschedules: rng.Uint64() >> 40,
		VolCS:          rng.Uint64() >> 20,
		InvolCS:        0,
		FutexWaits:     uint64(rng.Intn(1000)),
		FutexWakes:     uint64(rng.Intn(1000)),
		L1DMisses:      rng.Uint64(),
		DTLBMisses:     math.MaxUint64,
	}
	if ncpu >= 0 {
		sm.PerCPUQueue = make([]int, ncpu)
		sm.PerCPUUtil = make([]float64, ncpu)
		for i := 0; i < ncpu; i++ {
			sm.PerCPUQueue[i] = rng.Intn(20)
			sm.PerCPUUtil[i] = randFloat(rng)
		}
	}
	return sm
}

// randSampler fills a sampler through its own append path, so small
// capacities downsample and leave a pending bucket; the policy, interval
// and per-CPU shapes are drawn too.
func randSampler(rng *sim.Rand) *Sampler {
	s := NewSampler(Config{
		Interval: sim.Duration(1 + rng.Intn(1<<20)),
		Capacity: 2 + rng.Intn(12),
	})
	s.policy = edgeStrings[rng.Intn(len(edgeStrings))]
	ncpu := rng.Intn(6) - 1 // -1: nil per-CPU slices
	for n := rng.Intn(40); n > 0; n-- {
		s.append(randSample(rng, ncpu))
	}
	return s
}

// checkSame writes s with both writers and fails on any byte difference.
func checkSame(t *testing.T, label string, s *Sampler) {
	t.Helper()
	var got, want bytes.Buffer
	if err := refWriteJSON(s, &want); err != nil {
		t.Fatalf("%s: reference encoder: %v", label, err)
	}
	if err := s.WriteJSON(&got); err != nil {
		t.Fatalf("%s: WriteJSON: %v", label, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s: WriteJSON differs from encoding/json at byte %d:\n got %q\nwant %q",
			label, i, g[max(0, i-40):min(len(g), i+40)], w[max(0, i-40):min(len(w), i+40)])
	}
}

// TestWriteJSONMatchesEncoder compares the hand-written writer with the
// encoding/json reference over random series and the edge shapes: zero
// samples, empty policy, nil and empty per-CPU slices, downsampled series
// with a pending bucket, and floats at the formatting cutoffs.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	checkSame(t, "zero samples", NewSampler(Config{}))
	withPolicy := NewSampler(Config{})
	withPolicy.policy = "cfs"
	checkSame(t, "zero samples with policy", withPolicy)

	shapes := NewSampler(Config{})
	shapes.samples = []Sample{
		{At: 1, Window: 1},
		{At: 2, Window: 1, PerCPUQueue: []int{}, PerCPUUtil: []float64{}},
		{At: 3, Window: 1, PerCPUQueue: []int{1}, PerCPUUtil: nil},
		{At: 4, Window: 1, PerCPUQueue: nil, PerCPUUtil: []float64{}},
	}
	checkSame(t, "nil and empty per-CPU slices", shapes)

	floats := NewSampler(Config{})
	for i, f := range edgeFloats {
		floats.samples = append(floats.samples, Sample{At: sim.Time(i), UtilPct: f,
			PerCPUUtil: []float64{f, -f}, PerCPUQueue: []int{i, -i}})
	}
	checkSame(t, "edge floats", floats)

	for i, str := range edgeStrings {
		s := NewSampler(Config{})
		s.policy = str
		checkSame(t, "policy "+string(rune('a'+i)), s)
	}

	rng := sim.NewRand(2024)
	for i := 0; i < 500; i++ {
		checkSame(t, "random series", randSampler(rng))
	}

	// A long series crosses the flush threshold many times.
	long := NewSampler(Config{Capacity: 1 << 13})
	for i := 0; i < 4096; i++ {
		long.append(randSample(rng, 8))
	}
	checkSame(t, "4096 samples", long)
}

// TestWriteJSONRejectsNonFinite: like the encoder, the writer refuses NaN
// and infinities, and it writes nothing at all, not a truncated document.
func TestWriteJSONRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, perCPU := range []bool{false, true} {
			s := NewSampler(Config{Capacity: 1 << 13})
			for i := 0; i < 3000; i++ {
				s.append(Sample{At: sim.Time(i + 1), Window: 1, UtilPct: 50,
					PerCPUQueue: []int{1}, PerCPUUtil: []float64{50}})
			}
			last := s.sampleAt(s.Len() - 1)
			if perCPU {
				last.PerCPUUtil = []float64{50, bad}
			} else {
				last.UtilPct = bad
			}
			var ref, got bytes.Buffer
			if err := refWriteJSON(s, &ref); err == nil {
				t.Fatalf("reference encoder accepted %v", bad)
			}
			if err := s.WriteJSON(&got); err == nil {
				t.Errorf("WriteJSON accepted %v (perCPU=%v)", bad, perCPU)
			}
			if got.Len() != 0 {
				t.Errorf("WriteJSON wrote %d bytes before rejecting %v", got.Len(), bad)
			}
		}
	}
}

// TestWriteJSONBoundedMemory pins the streaming property: exporting 64 or
// 4096 samples costs the same constant allocations (the chunk buffer),
// and no single write to the destination exceeds one chunk plus a sample.
func TestWriteJSONBoundedMemory(t *testing.T) {
	rng := sim.NewRand(5)
	series := func(n int) *Sampler {
		s := NewSampler(Config{Capacity: 1 << 13})
		for i := 0; i < n; i++ {
			s.append(randSample(rng, 8))
		}
		return s
	}
	small, large := series(64), series(4096)
	allocs := func(s *Sampler) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := s.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	a64, a4096 := allocs(small), allocs(large)
	if a64 != 1 || a4096 != 1 {
		t.Errorf("WriteJSON allocs/run = %v at 64 samples, %v at 4096; want 1 for both", a64, a4096)
	}

	var cw chunkWriter
	if err := large.WriteJSON(&cw); err != nil {
		t.Fatal(err)
	}
	if cw.writes < 2 || cw.largest > jsonChunk+4096 {
		t.Errorf("4096 samples went out in %d writes, largest %d bytes; want several of at most %d",
			cw.writes, cw.largest, jsonChunk+4096)
	}
}

// chunkWriter discards what it is given and records the write sizes.
type chunkWriter struct{ writes, largest int }

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.writes++
	c.largest = max(c.largest, len(p))
	return len(p), nil
}
