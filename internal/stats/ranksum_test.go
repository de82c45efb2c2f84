package stats

import (
	"math"
	"testing"
)

// TestRankSumExactByHand pins u and the exact p against counts done by
// hand over every split of the pooled ranks.
func TestRankSumExactByHand(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y []float64
		u, p float64
	}{
		// Ranks {1,2 | 3,4}: y takes the top pair, 1 of C(4,2) = 6 splits.
		{"separated", []float64{1, 2}, []float64{3, 4}, 4, 1.0 / 6},
		// y takes the bottom pair: every split has a rank sum at least 3.
		{"reversed", []float64{3, 4}, []float64{1, 2}, 0, 1},
		// y ranks {2,4}, sum 6; sums of the 6 splits: 3,4,5,5,6,7.
		{"interleaved", []float64{1, 3}, []float64{2, 4}, 3, 2.0 / 6},
		// Midranks 1, 2.5, 2.5, 4; y sums 2.5+4 = 6.5 (u = 3.5); split
		// sums 3.5, 3.5, 5, 5, 6.5, 6.5.
		{"tie", []float64{1, 2}, []float64{2, 3}, 3.5, 2.0 / 6},
		// 1 of C(6,3) = 20 splits puts y on top.
		{"three each", []float64{1, 2, 3}, []float64{4, 5, 6}, 9, 1.0 / 20},
		// 1 of C(10,5) = 252.
		{"five each", []float64{1, 2, 3, 4, 5}, []float64{6, 7, 8, 9, 10}, 25, 1.0 / 252},
		// Unequal sizes: y's one value ranks 3 of 3, 1 of 3 splits.
		{"one vs two", []float64{1, 2}, []float64{5}, 2, 1.0 / 3},
		// All tied: every split has the same sum.
		{"all tied", []float64{7, 7}, []float64{7, 7}, 2, 1},
		// +Inf ranks above every finite value.
		{"infinite", []float64{1, 2}, []float64{math.Inf(1), 3}, 4, 1.0 / 6},
	} {
		u, p := RankSum(tc.x, tc.y)
		if u != tc.u || math.Abs(p-tc.p) > 1e-12 {
			t.Errorf("%s: RankSum = (%v, %v), want (%v, %v)", tc.name, u, p, tc.u, tc.p)
		}
	}
}

// TestRankSumEmpty: an empty sample gives no evidence.
func TestRankSumEmpty(t *testing.T) {
	if u, p := RankSum(nil, []float64{1}); u != 0 || p != 1 {
		t.Fatalf("RankSum(nil, y) = (%v, %v), want (0, 1)", u, p)
	}
}

// TestRankSumSymmetric: the two one-sided p-values of a tie-free
// sample add up to 1 plus the probability of the observed rank sum, so
// swapping the samples mirrors the test.
func TestRankSumSymmetric(t *testing.T) {
	x := []float64{1.5, 3, 4.25, 8, 9.5, 11}
	y := []float64{2, 5, 6, 7, 10, 12, 13}
	uy, py := RankSum(x, y)
	ux, px := RankSum(y, x)
	if ux+uy != float64(len(x)*len(y)) {
		t.Fatalf("u values %v + %v, want %d", ux, uy, len(x)*len(y))
	}
	if py+px <= 1 || py+px > 1.2 {
		t.Fatalf("one-sided p-values %v + %v", py, px)
	}
}

// TestRankSumNormalMatchesExact: just past the exact limit the normal
// approximation lands close to the exact value just below it.
func TestRankSumNormalMatchesExact(t *testing.T) {
	mk := func(n int, off float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(2*i) + off
		}
		return v
	}
	// 32 + 32 pooled values: exact; 33 + 33: normal. Same shift.
	_, pe := RankSum(mk(32, 0), mk(32, 5))
	_, pn := RankSum(mk(33, 0), mk(33, 5))
	if math.Abs(pe-pn) > 0.05 {
		t.Fatalf("exact p %v, normal p %v", pe, pn)
	}
	if pe < 0.05 || pe > 0.5 {
		t.Fatalf("exact p %v for a small shift", pe)
	}
}

// TestRankSumNormalTies: past the exact limit, an all-tied sample gives
// no evidence, and a tie-heavy shifted sample still rejects.
func TestRankSumNormalTies(t *testing.T) {
	same := make([]float64, 40)
	if _, p := RankSum(same, same); p != 1 {
		t.Fatalf("all tied: p = %v, want 1", p)
	}
	x, y := make([]float64, 40), make([]float64, 40)
	for i := range x {
		x[i], y[i] = float64(i%4), float64(i%4+3)
	}
	if _, p := RankSum(x, y); p > 1e-6 {
		t.Fatalf("shifted tied samples: p = %v", p)
	}
}
