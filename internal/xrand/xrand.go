// Package xrand builds the random generators every search draws from and
// the bounded draws the schedule samplers make from them.
//
// A Rand is PCG from math/rand/v2 (16 bytes of state, seeded in O(1), so
// reseeding a generator for every layer search costs nothing) together
// with the *math/rand.Rand view of that same state, which is what the
// searches take. Its bounded draws, IntN and Shuffle, read the PCG
// directly, so the hot sampling loops pay no interface call per value;
// the view's methods and the direct draws advance one stream. A Rand
// can also wrap a *math/rand.Rand built elsewhere (Wrap): it then draws
// every value through that generator, and IntN and Shuffle return
// exactly what they return over an identically seeded one. The frozen
// Go 1 math/rand stream is not reproduced anywhere.
package xrand

import (
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
)

// Rand is a generator: a PCG source and the *rand.Rand view over it, or
// a wrapped foreign *rand.Rand. The embedded *rand.Rand is the view, so
// a Rand has every *rand.Rand method, and (*Rand).Rand is what to hand
// an API that takes a *rand.Rand. A Rand made by New must not be
// copied: its view keeps drawing from the original's source.
//
// The padding makes a Rand fill one 64-byte cache line: layer searches
// on different workers write their sources on every draw, and 16-byte
// sources allocated side by side would share a line (at paper scale
// that false sharing cost a quarter of the run time on 2 CPUs).
type Rand struct {
	*rand.Rand
	src     source
	foreign bool // draw through Rand, not src
	_       [39]byte
}

// New returns a generator seeded with seed. Seed reseeds it in place,
// and it then draws exactly what New(seed) would.
func New(seed int64) *Rand {
	g := new(Rand)
	g.src.Seed(seed)
	g.Rand = rand.New(&g.src)
	return g
}

// Wrap returns a generator that draws every value through r's Uint64,
// so its IntN and Shuffle consume r's stream as they would consume a
// New generator's. It is small enough to inline, so a wrap that does
// not outlive its caller stays on the stack.
func Wrap(r *rand.Rand) *Rand { return &Rand{Rand: r, foreign: true} }

// source is the rand.Source64 of a New generator's view. Seed spreads
// the seed over both state words with two splitmix64 steps, so nearby
// seeds start far apart.
type source struct{ pcg randv2.PCG }

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
// the generator's next value, rejecting the few products whose low
// word falls below 2^64 mod n, which would bias it. With one choice it
// returns 0 and draws nothing, so a pick from a one-element list leaves
// the stream where it was. It panics if n <= 0.
func (g *Rand) IntN(n int) int {
	if n <= 1 {
		if n == 1 {
			return 0
		}
		panic("xrand: IntN with n <= 0")
	}
	// 2^64 mod n is below n, so only lo < n needs the division. The
	// source is chosen once per call, not once per value, which keeps
	// each loop tight (BenchmarkIntN).
	un := uint64(n)
	if g.foreign {
		for {
			hi, lo := bits.Mul64(g.Rand.Uint64(), un)
			if lo >= un || lo >= -un%un {
				return int(hi)
			}
		}
	}
	for {
		hi, lo := bits.Mul64(g.src.pcg.Uint64(), un)
		if lo >= un || lo >= -un%un {
			return int(hi)
		}
	}
}

// Shuffle permutes a uniformly in place: Fisher–Yates from the last
// index down, each swap partner drawn by IntN.
func Shuffle[E any](g *Rand, a []E) {
	for i := len(a) - 1; i > 0; i-- {
		j := g.IntN(i + 1)
		a[i], a[j] = a[j], a[i]
	}
}
