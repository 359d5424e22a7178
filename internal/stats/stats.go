// Package stats provides exact latency statistics and small-sample
// summaries for the benchmark harnesses.
package stats

import (
	"fmt"
	"math"
	"sort"

	"oversub/internal/sim"
)

// Recorder consumes latency samples. Latency (exact, sample-storing) and
// Digest (streaming, mergeable) both implement it, so accounting code can
// take either: exact order statistics for one run, bounded memory for a
// fleet.
type Recorder interface {
	Observe(d sim.Duration)
}

// Latency accumulates duration samples and answers exact order statistics.
type Latency struct {
	samples []sim.Duration
	sorted  bool
	sum     sim.Duration
}

// Add records one sample.
func (l *Latency) Add(d sim.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
	l.sum += d
}

// Observe records one sample (the Recorder spelling of Add).
func (l *Latency) Observe(d sim.Duration) { l.Add(d) }

// Count returns the number of samples.
func (l *Latency) Count() int { return len(l.samples) }

// Mean returns the average sample, or 0 with no samples.
func (l *Latency) Mean() sim.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	return l.sum / sim.Duration(len(l.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) by the
// nearest-rank method, or 0 with no samples.
//
// Out-of-contract p is clamped rather than rejected: p <= 0 returns the
// smallest sample (rank 1) and p > 100 returns the largest (rank n), so a
// caller interpolating percentile labels can never index outside the
// sample set. With a single sample every p returns that sample.
func (l *Latency) Percentile(p float64) sim.Duration {
	n := len(l.samples)
	if n == 0 {
		return 0
	}
	l.ensureSorted()
	// Clamp p before the conversion so an absurd value cannot overflow the
	// float-to-int cast (which would select rank 1 instead of rank n).
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return l.samples[rank-1]
}

// Min returns the smallest sample.
func (l *Latency) Min() sim.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.ensureSorted()
	return l.samples[0]
}

// Max returns the largest sample.
func (l *Latency) Max() sim.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.ensureSorted()
	return l.samples[len(l.samples)-1]
}

func (l *Latency) ensureSorted() {
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
}

// String summarizes the distribution.
func (l *Latency) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		l.Count(), l.Mean(), l.Percentile(50), l.Percentile(95), l.Percentile(99), l.Max())
}

// Series accumulates float64 observations across benchmark repetitions.
type Series struct {
	vals []float64
}

// Add records one observation.
func (s *Series) Add(v float64) { s.vals = append(s.vals, v) }

// Count returns the number of observations.
func (s *Series) Count() int { return len(s.vals) }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Stddev returns the sample standard deviation, or 0 with < 2 samples.
func (s *Series) Stddev() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.vals {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(n-1))
}

// Min returns the smallest observation, or +Inf when empty.
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.vals {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation, or -Inf when empty.
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.vals {
		if v > max {
			max = v
		}
	}
	return max
}
