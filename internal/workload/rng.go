package workload

// RNG is the forge's self-contained pseudo-random generator (splitmix64).
// The generators deliberately avoid math/rand: its stream is only stable per
// Go release, while a workload spec must reproduce a byte-identical circuit
// on any toolchain — the determinism the spec-as-cache-key contract rests
// on. Splitmix64 is tiny, fast, and fully specified by its seed.
type RNG struct {
	state uint64
}

// NewRNG returns a deterministic generator for the seed (0 is a valid seed).
func NewRNG(seed int64) *RNG {
	return &RNG{state: uint64(seed)}
}

// Uint64 returns the next raw 64-bit value (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n); n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	// Rejection-free modulo is fine here: n is tiny relative to 2^64, and
	// reproducibility matters more than the ~n/2^64 bias.
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n); n must be positive.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("workload: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
