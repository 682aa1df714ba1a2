// Package prng provides deterministic pseudo-random number generation for
// reproducible characterization and injection campaigns.
//
// All randomness in the repository flows through this package so that every
// experiment is replayable from a single seed. The core generator is
// xoshiro256**, seeded through splitmix64 as its authors recommend.
package prng

import (
	"math"
	"math/bits"
)

// Source is a deterministic random source. It intentionally mirrors a small
// subset of math/rand so call sites read idiomatically, but it is seedable,
// splittable, and stable across runs and platforms.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns the next output. It is used
// to expand a single seed word into the xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashString is the 64-bit FNV-1a hash of s, the repository's way of
// deriving a stream seed from a name.
func HashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// New returns a Source seeded from the given seed. Distinct seeds yield
// independent streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// The all-zero state is invalid for xoshiro; splitmix64 cannot produce
	// four zero words from any seed, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

// Split returns a new Source whose stream is independent of the receiver's
// subsequent outputs. It consumes one value from the receiver.
func (src *Source) Split() *Source {
	return New(src.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (src *Source) Uint64() uint64 {
	s := &src.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint32 returns the next 32 uniformly random bits.
func (src *Source) Uint32() uint32 { return uint32(src.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (src *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(src.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method (Lemire, "Fast Random Integer Generation in an Interval",
// 2019): the 64-bit draw is mapped to [0, n) by taking the high word of the
// 128-bit product draw*n, and only the rare draws falling into the biased
// low fringe (fewer than n out of 2^64) are rejected and retried — no
// division on the common path. It panics if n == 0.
func (src *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		// threshold = 2^64 mod n; products with lo below it are the
		// overrepresented remainder fringe and must be redrawn.
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniformly random boolean.
func (src *Source) Bool() bool { return src.Uint64()&1 == 1 }

// NormFloat64 returns a standard normal variate (Box-Muller; one value per
// call, the twin is discarded to keep the stream position simple).
func (src *Source) NormFloat64() float64 {
	for {
		u := src.Float64()
		if u == 0 {
			continue
		}
		v := src.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a random permutation of [0, n).
func (src *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := src.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
