package sim

import "fmt"

// RNG is a small, fast, deterministic xorshift64* pseudo-random generator.
// Simulations must not use math/rand's global source: every run in this
// repository is reproducible from an explicit seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped, since an
// all-zero xorshift state is absorbing).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // golden-ratio constant
	}
	return &RNG{state: seed}
}

// Fork derives an independent generator from r, consuming one draw from r.
// Distinct salts give decorrelated streams, so subsystems (e.g. individual
// fault injectors) can each own a stream whose sequence does not shift when
// an unrelated subsystem draws more or fewer values.
func (r *RNG) Fork(salt uint64) *RNG {
	return NewRNG(r.Uint64() ^ (salt+1)*0x9E3779B97F4A7C15)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("sim: invariant violated: Intn needs a positive bound (got %d)", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
