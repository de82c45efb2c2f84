package sched

import (
	"math/rand"
	"testing"

	"spotlight/internal/workload"
)

// edgySource is a rand.Source that mixes a seeded stream with the
// extreme values 0 and 1<<63-1, which drive both Int31n's rejection
// loop (an Int31 above the threshold) and the Lemire int31n's rejection
// loop (a zero low product) — paths a plain source reaches about once
// in 2^19 draws for the table sizes the sampler uses.
type edgySource struct{ r *rand.Rand }

func (s edgySource) Int63() int64 {
	switch s.r.Intn(4) {
	case 0:
		return 0
	case 1:
		return 1<<63 - 1
	}
	return s.r.Int63()
}

func (s edgySource) Seed(int64) {}

// scriptSource is a rand.Source that cycles through fixed values.
type scriptSource struct {
	vals []int64
	i    int
}

func (s *scriptSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *scriptSource) Seed(int64) {}

// twins returns two generators that produce identical streams.
func twins(seed int64, edgy bool) (*rand.Rand, *rand.Rand) {
	if edgy {
		return rand.New(edgySource{rand.New(rand.NewSource(seed))}),
			rand.New(edgySource{rand.New(rand.NewSource(seed))})
	}
	return rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
}

// TestDrawsMatchMathRand checks that the sampler's table-driven draws
// reproduce math/rand exactly: intn returns rng.Intn's value and
// shuffleDims rng.Shuffle's permutation, and each leaves the generator
// in the state the stdlib call leaves it (the next Int63 of two twin
// generators agrees). Integer-only, so it holds on every GOARCH.
func TestDrawsMatchMathRand(t *testing.T) {
	sizes := make([]int, 0, 4100)
	for n := 1; n <= 4096; n++ {
		sizes = append(sizes, n)
	}
	// Sizes near 2^31 reject about half of all Int31 values.
	sizes = append(sizes, 1<<30, 1<<30+1, 3<<29, 1<<31-1)
	// At the rejection threshold: Int31 == max is accepted, max+1 is
	// rejected (the script then supplies an accepted value). Powers of
	// two never reject.
	for _, n := range sizes {
		d := newIntn(n)
		if d.max < 0 {
			continue
		}
		for _, v := range []int64{int64(d.max), int64(d.max) + 1} {
			script := []int64{v << 32, 12345 << 32, 678 << 32}
			ours, std := rand.New(&scriptSource{vals: script}), rand.New(&scriptSource{vals: script})
			if got, want := d.draw(ours), std.Intn(n); got != want {
				t.Fatalf("threshold %d: draw(%d) = %d, rand.Intn = %d", v, n, got, want)
			}
			if a, b := ours.Int63(), std.Int63(); a != b {
				t.Fatalf("threshold %d n %d: generator state diverged", v, n)
			}
		}
	}
	for _, edgy := range []bool{false, true} {
		for _, seed := range []int64{1, 42, 4242, -7} {
			ours, std := twins(seed, edgy)
			for _, n := range sizes {
				d := newIntn(n)
				for k := 0; k < 3; k++ {
					if got, want := d.draw(ours), std.Intn(n); got != want {
						t.Fatalf("edgy=%v seed %d: draw(%d) = %d, rand.Intn = %d", edgy, seed, n, got, want)
					}
				}
				if a, b := ours.Int63(), std.Int63(); a != b {
					t.Fatalf("edgy=%v seed %d n %d: generator state diverged (%d vs %d)", edgy, seed, n, a, b)
				}
			}

			ours, std = twins(seed, edgy)
			for k := 0; k < 5000; k++ {
				got := workload.AllDims
				shuffleDims(&got, ours)
				want := workload.AllDims
				std.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
				if got != want {
					t.Fatalf("edgy=%v seed %d draw %d: shuffleDims = %v, rand.Shuffle = %v", edgy, seed, k, got, want)
				}
				if a, b := ours.Int63(), std.Int63(); a != b {
					t.Fatalf("edgy=%v seed %d draw %d: generator state diverged after shuffle", edgy, seed, k)
				}
			}
		}
	}
}
