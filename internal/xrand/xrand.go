// Package xrand builds the random generators every search draws from and
// the bounded draws the schedule samplers make from them.
//
// Searches take a *math/rand.Rand, but its source is PCG from
// math/rand/v2: 16 bytes of state, seeded in O(1), so reseeding a
// generator for every layer search costs nothing. The frozen Go 1
// math/rand stream is not reproduced anywhere.
package xrand

import (
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
)

// New returns a generator seeded with seed. (*rand.Rand).Seed reseeds it
// in place, and it then draws exactly what New(seed) would.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is a rand.Source64 over PCG. Seed spreads the seed over both
// state words with two splitmix64 steps, so nearby seeds start far
// apart. The padding makes a source fill one 64-byte cache line: layer
// searches on different workers write their sources on every draw, and
// 16-byte sources allocated side by side would share a line (at paper
// scale that false sharing cost a quarter of the run time on 2 CPUs).
type source struct {
	pcg randv2.PCG
	_   [48]byte
}

func (s *source) Seed(seed int64) {
	z := uint64(seed)
	hi := splitmix(&z)
	s.pcg.Seed(hi, splitmix(&z))
}

func (s *source) Uint64() uint64 { return s.pcg.Uint64() }

func (s *source) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

// splitmix advances z by one splitmix64 step and returns its output.
func splitmix(z *uint64) uint64 {
	*z += 0x9e3779b97f4a7c15
	x := *z
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// IntN returns a uniform int in [0, n): Lemire's multiply-shift over
// r.Uint64(), rejecting the few products that would bias it. With one
// choice it returns 0 and draws nothing, so a pick from a one-element
// list leaves the stream where it was. It panics if n <= 0.
func IntN(r *rand.Rand, n int) int {
	if n <= 1 {
		if n == 1 {
			return 0
		}
		panic("xrand: IntN with n <= 0")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Shuffle permutes a uniformly in place: Fisher–Yates from the last
// index down, each swap partner drawn by IntN.
func Shuffle[E any](r *rand.Rand, a []E) {
	for i := len(a) - 1; i > 0; i-- {
		j := IntN(r, i+1)
		a[i], a[j] = a[j], a[i]
	}
}
