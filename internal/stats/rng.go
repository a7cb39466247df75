package stats

import "math"

// RNG is a small, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). BlackForest uses explicit RNG state
// everywhere so experiments are reproducible run-to-run; math/rand's global
// state is never touched.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		r.s[i] = splitmixFinalize(x)
	}
	return r
}

// SplitMix64 is the splitmix64 single-step mix: a cheap, high-quality
// avalanche of a 64-bit value. Callers use it to derive independent
// sub-seeds from a master seed (per tree, per profiled run) so work units
// can run in any order, or concurrently, without sharing generator state.
func SplitMix64(x uint64) uint64 {
	return splitmixFinalize(x + 0x9e3779b97f4a7c15)
}

// splitmixFinalize is splitmix64's output function.
func splitmixFinalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n ≤ 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)). It consumes
// exactly the same generator stream as Perm(len(p)), so hot paths can reuse
// a buffer without perturbing any downstream random sequence.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
}

// ShuffleInts permutes xs in place (Fisher–Yates).
func (r *RNG) ShuffleInts(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Bootstrap returns n indices drawn uniformly with replacement from [0, n),
// plus the set of out-of-bag indices not drawn.
func (r *RNG) Bootstrap(n int) (inBag []int, outOfBag []int) {
	inBag = make([]int, n)
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		k := r.Intn(n)
		inBag[i] = k
		seen[k] = true
	}
	for i, s := range seen {
		if !s {
			outOfBag = append(outOfBag, i)
		}
	}
	return inBag, outOfBag
}

// SampleWithoutReplacement returns k distinct indices from [0, n).
// It panics if k > n.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("stats: sample size exceeds population")
	}
	p := r.Perm(n)
	return p[:k]
}

// TrainTestSplit partitions [0, n) into a training set of ⌈frac·n⌉ indices
// and a test set of the rest, both in random order.
func (r *RNG) TrainTestSplit(n int, frac float64) (train, test []int) {
	p := r.Perm(n)
	cut := int(frac*float64(n) + 0.5)
	if cut > n {
		cut = n
	}
	return p[:cut], p[cut:]
}
