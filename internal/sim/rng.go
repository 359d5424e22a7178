package sim

import "math"

// Rand is a deterministic pseudo-random source (splitmix64 core). It is not
// safe for concurrent use, which is fine: the engine is single-threaded.
type Rand struct {
	state uint64
}

// gamma is splitmix64's state increment: each draw adds it once.
const gamma = 0x9E3779B97F4A7C15

// NewRand returns a source seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed + gamma}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Skip discards the next n draws in O(1), leaving the source exactly where
// n calls to Uint64 would.
func (r *Rand) Skip(n uint64) { r.state += n * gamma }

// Intn returns a uniform int in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (r *Rand) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// NormFloat64 returns a normally distributed float64 (mean 0, stddev 1),
// via the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Duration returns a uniform duration in [0, d).
func (r *Rand) Duration(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(r.Uint64() % uint64(d))
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f]. Workloads use
// it to avoid artificial lock-step phasing between simulated threads.
func (r *Rand) Jitter(d Duration, f float64) Duration {
	if f <= 0 {
		return d
	}
	scale := 1 + f*(2*r.Float64()-1)
	v := Duration(float64(d) * scale)
	if v < 0 {
		return 0
	}
	return v
}

// Split returns a new independent source derived from this one. Subsystems
// take a split source so that adding draws in one subsystem does not perturb
// another.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64())
}
