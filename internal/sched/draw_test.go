package sched

import (
	"math/rand"
	"testing"

	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

// edgySource is a rand.Source that mixes a seeded stream with the
// extreme values 0 and 1<<63-1. (*rand.Rand).Uint64 builds a value
// from two of them when the source has no Uint64, so about one value in
// sixteen is 0, which drives xrand.IntN's rejection loop (a low product
// below the threshold), a path a plain source reaches about once in
// 2^58 draws for the table sizes the sampler uses.
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

// twins returns two generators that produce identical streams.
func twins(seed int64, edgy bool) (*rand.Rand, *rand.Rand) {
	if edgy {
		return rand.New(edgySource{xrand.New(seed)}), rand.New(edgySource{xrand.New(seed)})
	}
	return xrand.New(seed), xrand.New(seed)
}

// TestTilesThenOrdersIsRandom: RandomTo is TilesTo followed by
// OrdersTo on one stream, so a caller that draws the orders after all
// its candidates' tiles keeps each schedule's distribution, and only a
// free order consumes values.
func TestTilesThenOrdersIsRandom(t *testing.T) {
	l := workload.ResNet50().Layers[6]
	for _, c := range allConstraints() {
		sp := c.Sampler(l, 64, 32<<10)
		for _, edgy := range []bool{false, true} {
			r1, r2 := twins(7, edgy)
			for i := 0; i < 64; i++ {
				var got, want Schedule
				sp.TilesTo(r1, &got, nil, nil)
				sp.OrdersTo(r1, &got)
				sp.RandomTo(r2, &want)
				if got != want {
					t.Fatalf("%s: TilesTo+OrdersTo drew %v, RandomTo %v", c.Name, got, want)
				}
			}
			if a, b := r1.Int63(), r2.Int63(); a != b {
				t.Fatalf("%s: generators diverged", c.Name)
			}
		}
		if c.FixedOuterOrder != nil && c.FixedInnerOrder != nil {
			r1, r2 := twins(3, false)
			var s Schedule
			sp.OrdersTo(r1, &s)
			if a, b := r1.Int63(), r2.Int63(); a != b {
				t.Fatalf("%s: fixed orders consumed random values", c.Name)
			}
		}
	}
}

// TestOrdersUniform: over many draws, every dimension lands in every
// position of a free order about equally often (a chi-square bound far
// above what a uniform shuffle reaches at this sample size).
func TestOrdersUniform(t *testing.T) {
	sp := Free().Sampler(workload.ResNet50().Layers[6], 64, 32<<10)
	rng, _ := twins(11, false)
	const n = 70000
	var counts [2][workload.NumDims][workload.NumDims]int
	var s Schedule
	for i := 0; i < n; i++ {
		sp.OrdersTo(rng, &s)
		for pos := range workload.AllDims {
			counts[0][pos][s.OuterOrder[pos]]++
			counts[1][pos][s.InnerOrder[pos]]++
		}
	}
	want := float64(n) / workload.NumDims
	for lvl := range counts {
		for pos := range counts[lvl] {
			chi := 0.0
			for _, c := range counts[lvl][pos] {
				chi += (float64(c) - want) * (float64(c) - want) / want
			}
			// 6 degrees of freedom: p(chi² > 30) ≈ 4e-5.
			if chi > 30 {
				t.Errorf("level %d position %d: chi² = %.1f over %v", lvl, pos, chi, counts[lvl][pos])
			}
		}
	}
}
