package stats

import (
	"math"
	"sort"
)

// rankSumExactMax is the largest pooled sample RankSum gives an exact
// p-value for. Its table holds len(y)+1 rows of 2·N·len(y) counts, 135k
// float64 at N = 64.
const rankSumExactMax = 64

// RankSum is the one-sided Mann–Whitney U (Wilcoxon rank-sum) test of
// whether y tends to be larger than x. u is the Mann–Whitney statistic
// of y: the number of pairs (x_i, y_j) with y_j > x_i, a tie counting
// one half. p is the probability, when x and y are drawn from one
// distribution, of a u at least as large. Up to 64 pooled values p is
// exact: the permutation distribution of the rank sum over every way to
// split the pooled midranks, which stays exact under ties. Beyond that
// it is the normal approximation with tie and continuity corrections.
// Values must not be NaN; +Inf ranks above every finite value. With an
// empty sample there is no evidence either way, and p is 1.
func RankSum(x, y []float64) (u, p float64) {
	m, n := len(x), len(y)
	if m == 0 || n == 0 {
		return 0, 1
	}
	pooled := append(append(make([]float64, 0, m+n), x...), y...)
	ranks := Ranks(pooled)
	// Midranks are half-integers, so doubled they are exact integers.
	r2 := make([]int, m+n)
	w2 := 0
	for i, r := range ranks {
		r2[i] = int(2 * r)
		if i >= m {
			w2 += r2[i]
		}
	}
	u = float64(w2)/2 - float64(n*(n+1))/2
	if m+n <= rankSumExactMax {
		return u, rankSumExact(r2, n, w2)
	}
	return u, rankSumNormal(r2, m, n, u)
}

// rankSumExact returns the share of the n-element subsets of the
// doubled ranks r2 whose sum is at least w2. ways[k][s] counts the
// k-subsets of the ranks seen so far that sum to s.
func rankSumExact(r2 []int, n, w2 int) float64 {
	maxSum := 0
	for _, r := range r2 {
		maxSum += r
	}
	ways := make([][]float64, n+1)
	for k := range ways {
		ways[k] = make([]float64, maxSum+1)
	}
	ways[0][0] = 1
	for i, r := range r2 {
		for k := min(i+1, n); k >= 1; k-- {
			row, prev := ways[k], ways[k-1]
			for s := maxSum; s >= r; s-- {
				row[s] += prev[s-r]
			}
		}
	}
	var total, tail float64
	for s, c := range ways[n] {
		total += c
		if s >= w2 {
			tail += c
		}
	}
	return tail / total
}

// rankSumNormal is the upper-tail normal approximation of u, with the
// variance corrected for ties and a half-unit continuity correction. A
// tie group of size t shares one doubled midrank in r2, so the groups
// are the runs of equal values once r2 is sorted.
func rankSumNormal(r2 []int, m, n int, u float64) float64 {
	sorted := append([]int(nil), r2...)
	sort.Ints(sorted)
	var tieSum float64
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}
	big := float64(m + n)
	mean := float64(m*n) / 2
	variance := float64(m*n) / 12 * ((big + 1) - tieSum/(big*(big-1)))
	if variance <= 0 {
		return 1 // every value tied: no evidence either way
	}
	z := (u - mean - 0.5) / math.Sqrt(variance)
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
