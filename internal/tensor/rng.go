package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (PCG-XSH-RR 64/32-inspired splitmix64 core). Every stochastic component in
// this repository draws from an RNG seeded explicitly, so all experiments are
// reproducible bit-for-bit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm up so nearby seeds decorrelate quickly.
	r.Uint64()
	r.Uint64()
	return r
}

// Uint64 returns the next 64 uniformly distributed bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Float32 returns a uniform sample in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample using the Box-Muller transform.
func (r *RNG) Norm() float64 {
	for {
		u1 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// NormFloat32 returns a standard normal sample as float32.
func (r *RNG) NormFloat32() float32 { return float32(r.Norm()) }

// State returns the generator's full internal state. Together with SetState
// it lets checkpoints persist the exact phase of any RNG stream, so a
// resumed run draws the identical continuation of the sequence.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously captured with State. Unlike NewRNG
// it performs no warm-up: the next draw continues exactly where the
// captured generator left off.
func (r *RNG) SetState(s uint64) { r.state = s }

// Mix is the one way a key for randomness is derived: seed, then the bytes
// of name (FNV-1a; an empty name adds nothing, so Mix(key, "", c…) extends
// key), then each counter, each folded in by one splitmix64 step. A
// component that needs randomness keys it by what it is for — a parameter's
// name, a step, a slot — never by the order it is asked in, so stepping
// parameters in any order, in any grouping, draws the same numbers.
func Mix(seed uint64, name string, counters ...uint64) uint64 {
	z := seed
	if name != "" {
		h := uint64(0xCBF29CE484222325)
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 0x100000001B3
		}
		z = fold(z, h)
	}
	for _, c := range counters {
		z = fold(z, c)
	}
	return z
}

// Uniform returns element e's sample in [0, 1) of the stream keyed by key:
// float64(Mix(key, "", e)) at 53 bits, which is the (e+1)-th output of a
// splitmix64 generator seeded at key.
func Uniform(key uint64, e int) float64 {
	return float64(fold(key, uint64(e))>>11) / float64(1<<53)
}

// fold is one splitmix64 step from state z, advanced by w+1 increments.
func fold(z, w uint64) uint64 {
	z += (w + 1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
