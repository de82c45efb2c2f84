package xrand

import (
	"math"
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
		if got := IntN(a, 1); got != 0 {
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
			IntN(New(1), n)
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
func TestIntNRejectsBiasedProducts(t *testing.T) {
	src := &zeroSource{k: 3}
	r := rand.New(src)
	// The accepted value 4<<40 times 6 stays below 2^64: index 0.
	if got := IntN(r, 6); got != 0 || src.i != 4 {
		t.Fatalf("IntN(6) = %d after %d values, want 0 after 4 (three rejected zeros)", got, src.i)
	}
	src = &zeroSource{k: 3}
	r = rand.New(src)
	if got := IntN(r, 8); got != 0 || src.i != 1 {
		t.Fatalf("IntN(8) = %d after %d values, want 0 after 1", got, src.i)
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
			counts[IntN(r, n)]++
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

// TestSourceFillsCacheLine: a source is one 64-byte allocation, so two
// workers' sources never share a cache line.
func TestSourceFillsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(source{}); n != 64 {
		t.Fatalf("source is %d bytes, want 64", n)
	}
}
