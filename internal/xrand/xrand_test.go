package xrand

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"
)

// TestStreamGolden pins the first values of a few seeds, so a change to
// the source or its seeding shows as a changed stream.
func TestStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want [3]uint64
	}{
		{1, [3]uint64{0xaf9d32bf75779748, 0xb7672df032bf0473, 0x17e851b73891d79}},
		{4242, [3]uint64{0x3f96d5caeedfcbb6, 0x70560bddc0c57141, 0x6fa71c48fe13e084}},
		{-7, [3]uint64{0xf27a70084cc2802b, 0x85aec891c312de0, 0x91d8cc31919f5bed}},
	} {
		r := New(tc.seed)
		var got [3]uint64
		for i := range got {
			got[i] = r.Uint64()
		}
		if got != tc.want {
			t.Errorf("seed %d: first values %#x, want %#x", tc.seed, got, tc.want)
		}
	}
}

// TestReseedInPlace: (*rand.Rand).Seed restarts the source, so a used
// generator reseeded draws what a new one draws, through Int63, Uint64,
// Intn and Float64 alike.
func TestReseedInPlace(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		r.Int63()
	}
	for _, seed := range []int64{5, 0, -1, math.MaxInt64} {
		r.Seed(seed)
		want := New(seed)
		for i := 0; i < 100; i++ {
			var g, w uint64
			switch i % 4 {
			case 0:
				g, w = uint64(r.Int63()), uint64(want.Int63())
			case 1:
				g, w = r.Uint64(), want.Uint64()
			case 2:
				g, w = uint64(r.Intn(37)), uint64(want.Intn(37))
			case 3:
				g, w = math.Float64bits(r.Float64()), math.Float64bits(want.Float64())
			}
			if g != w {
				t.Fatalf("seed %d draw %d: reseeded %d, new %d", seed, i, g, w)
			}
		}
	}
}

// TestNearbySeedsDiffer: consecutive seeds start uncorrelated streams.
func TestNearbySeedsDiffer(t *testing.T) {
	seen := map[uint64]int64{}
	for seed := int64(0); seed < 1000; seed++ {
		v := New(seed).Uint64()
		if s, ok := seen[v]; ok {
			t.Fatalf("seeds %d and %d start with the same value", s, seed)
		}
		seen[v] = seed
	}
}

// TestIntNOneDrawsNothing: a one-element pick returns 0 and leaves the
// stream where it was.
func TestIntNOneDrawsNothing(t *testing.T) {
	a, b := New(3), New(3)
	for i := 0; i < 10; i++ {
		if got := a.IntN(1); got != 0 {
			t.Fatalf("IntN(1) = %d", got)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("IntN(1) consumed a value")
	}
}

// TestIntNPanicsOnEmpty: n <= 0 has no value to return.
func TestIntNPanicsOnEmpty(t *testing.T) {
	for _, n := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IntN(%d) did not panic", n)
				}
			}()
			New(1).IntN(n)
		}()
	}
}

// zeroSource returns 0 for its first k values, then counts up: a zero
// product's low word is below every threshold, so IntN must reject it.
type zeroSource struct{ k, i uint64 }

func (s *zeroSource) Uint64() uint64 {
	s.i++
	if s.i <= s.k {
		return 0
	}
	return s.i << 40
}
func (s *zeroSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *zeroSource) Seed(int64)   {}

// TestIntNRejectsBiasedProducts: Lemire's rejection skips values whose
// low product falls below 2^64 mod n, and accepts the first that does
// not; for a power of two the threshold is 0 and nothing is rejected.
// A wrapped generator takes the rejection loop on its foreign source's
// values.
func TestIntNRejectsBiasedProducts(t *testing.T) {
	src := &zeroSource{k: 3}
	g := Wrap(rand.New(src))
	// The accepted value 4<<40 times 6 stays below 2^64: index 0.
	if got := g.IntN(6); got != 0 || src.i != 4 {
		t.Fatalf("IntN(6) = %d after %d values, want 0 after 4 (three rejected zeros)", got, src.i)
	}
	src = &zeroSource{k: 3}
	g = Wrap(rand.New(src))
	if got := g.IntN(8); got != 0 || src.i != 1 {
		t.Fatalf("IntN(8) = %d after %d values, want 0 after 1", got, src.i)
	}
}

// refIntN is Lemire's bounded draw as it is usually written, over a
// plain *rand.Rand: the reference both kinds of generator must match.
func refIntN(r *rand.Rand, n int) int {
	if n == 1 {
		return 0
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

// plain returns a *rand.Rand over a source seeded with seed, which is
// not any generator's view.
func plain(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// TestDrawsMatchPlainRand interleaves a generator's IntN and Shuffle
// with its view's Intn, Float64 and Uint64, and requires every value to
// equal what a plain *rand.Rand over an identically seeded source
// gives, with IntN and Shuffle computed by refIntN. It checks a New
// generator, which draws from its PCG state directly, and a wrap of a
// plain *rand.Rand, which draws through it. n = 3<<61 rejects one
// product in eight, so both take the rejection loop.
func TestDrawsMatchPlainRand(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 56, 1000003, 3 << 61}
	for _, seed := range []int64{1, 4242, -7} {
		for _, g := range []*Rand{New(seed), Wrap(plain(seed))} {
			want := plain(seed)
			for i := 0; i < 5000; i++ {
				var got, w uint64
				switch i % 5 {
				case 0:
					n := sizes[(i/5)%len(sizes)]
					got, w = uint64(g.IntN(n)), uint64(refIntN(want, n))
				case 1:
					a, b := [7]int{0, 1, 2, 3, 4, 5, 6}, [7]int{0, 1, 2, 3, 4, 5, 6}
					Shuffle(g, a[:])
					for j := len(b) - 1; j > 0; j-- {
						k := refIntN(want, j+1)
						b[j], b[k] = b[k], b[j]
					}
					if a != b {
						t.Fatalf("seed %d (foreign %v) draw %d: Shuffle gave %v, want %v", seed, g.foreign, i, a, b)
					}
				case 2:
					got, w = uint64(g.Intn(37)), uint64(want.Intn(37))
				case 3:
					got, w = math.Float64bits(g.Float64()), math.Float64bits(want.Float64())
				case 4:
					got, w = g.Uint64(), want.Uint64()
				}
				if got != w {
					t.Fatalf("seed %d (foreign %v) draw %d: got %d, want %d", seed, g.foreign, i, got, w)
				}
			}
		}
	}
}

// TestIntNUniform: a chi-square bound over many draws, for list sizes
// the samplers use.
func TestIntNUniform(t *testing.T) {
	r := New(9)
	for _, n := range []int{2, 3, 7, 12, 56} {
		counts := make([]int, n)
		draws := 2000 * n
		for i := 0; i < draws; i++ {
			counts[r.IntN(n)]++
		}
		chi := 0.0
		for _, c := range counts {
			d := float64(c) - 2000
			chi += d * d / 2000
		}
		// Mean n-1, sd sqrt(2(n-1)): six sd above the mean.
		if limit := float64(n-1) + 6*math.Sqrt(2*float64(n-1)) + 10; chi > limit {
			t.Errorf("n=%d: chi² = %.1f > %.1f: %v", n, chi, limit, counts)
		}
	}
}

// TestShufflePermutes: Shuffle returns a permutation of its input.
func TestShufflePermutes(t *testing.T) {
	r := New(2)
	for k := 0; k < 100; k++ {
		a := []int{0, 1, 2, 3, 4, 5, 6}
		Shuffle(r, a)
		var seen [7]bool
		for _, v := range a {
			if seen[v] {
				t.Fatalf("Shuffle repeated %d: %v", v, a)
			}
			seen[v] = true
		}
	}
}

// TestSourceFillsCacheLine: a generator, whose PCG state every draw
// writes, is one 64-byte allocation on a 64-byte boundary, so two
// workers' generators never share a cache line.
func TestSourceFillsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Rand{}); n != 64 {
		t.Fatalf("Rand is %d bytes, want 64", n)
	}
	for i := 0; i < 100; i++ {
		if p := uintptr(unsafe.Pointer(New(int64(i)))); p%64 != 0 {
			t.Fatalf("generator %d at %#x straddles cache lines", i, p)
		}
	}
}

var sink int

// BenchmarkIntN measures one bounded draw from a table-sized list:
// "direct" reads a New generator's PCG state, "rand" draws through a
// *rand.Rand (a wrap of that generator's view), which costs a call
// chain and an interface call per value.
func BenchmarkIntN(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *Rand
	}{{"direct", New(1)}, {"rand", Wrap(New(1).Rand)}} {
		b.Run(bc.name, func(b *testing.B) {
			g, sum := bc.g, 0
			for i := 0; i < b.N; i++ {
				sum += g.IntN(56)
			}
			sink = sum
		})
	}
}
