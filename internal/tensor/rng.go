package tensor

import "math"

// RNG is a small deterministic PRNG (xorshift64*) used for reproducible
// weight initialization and synthetic data. It avoids math/rand so that
// streams are stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed (zero is remapped to a fixed
// non-zero constant, since xorshift requires non-zero state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// State returns the RNG's position in its stream, for checkpoint/replay
// (pair with SetState to rewind a dropout layer before a forward replay).
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds the RNG to a position captured by State (zero is
// remapped exactly as in NewRNG).
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	r.state = s
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample (Box–Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillNormal fills t with N(mean, std²) samples.
func (t *Tensor) FillNormal(r *RNG, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(mean + std*r.Norm())
	}
}

// FillUniform fills t with uniform samples in [lo, hi).
func (t *Tensor) FillUniform(r *RNG, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + (hi-lo)*r.Float64())
	}
}

// FillHe applies He (Kaiming) initialization for a conv/linear weight with
// the given fan-in, the standard initialization for ReLU networks.
func (t *Tensor) FillHe(r *RNG, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	t.FillNormal(r, 0, std)
}
