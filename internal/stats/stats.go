// Package stats provides the statistics used throughout the evaluation:
// Spearman rank correlation (surrogate accuracy, §VII-D), quantiles and
// empirical CDFs (Figure 11), summary statistics for the convergence plots
// (Figure 10), and top-quantile overlap (§VII-D and §VII-F).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Ranks returns the fractional ranks of v (average rank for ties), 1-based,
// as used by the Spearman rank correlation coefficient.
func Ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] { //lint:allow floateq(rank ties are defined by exact equality; a tolerance would invent ties and skew Spearman)
			j++
		}
		// Average rank over the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns the Spearman rank correlation coefficient ρ between a and
// b. It is the Pearson correlation of the rank vectors, which handles ties
// correctly. Returns 0 when either input has zero rank variance.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: spearman length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) < 2 {
		return 0
	}
	return Pearson(Ranks(a), Ranks(b))
}

// Pearson returns the Pearson correlation coefficient of a and b, or 0 when
// either vector is constant.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: pearson length mismatch %d vs %d", len(a), len(b)))
	}
	n := float64(len(a))
	if n < 2 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of v using linear
// interpolation between order statistics. Panics on an empty slice.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		panic("stats: quantile of empty slice")
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of v.
func Median(v []float64) float64 { return Quantile(v, 0.5) }

// Min returns the smallest element of v. Panics on an empty slice.
func Min(v []float64) float64 {
	if len(v) == 0 {
		panic("stats: min of empty slice")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of v. Panics on an empty slice.
func Max(v []float64) float64 {
	if len(v) == 0 {
		panic("stats: max of empty slice")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary bundles the min / median / max statistics reported for each bar
// of Figures 6-8 (median of trials with min/max error bars).
type Summary struct {
	Min, Median, Max float64
}

// Summarize computes the Summary of v.
func Summarize(v []float64) Summary {
	return Summary{Min: Min(v), Median: Median(v), Max: Max(v)}
}

// CDF is an empirical cumulative distribution function over a sample set,
// as plotted in Figure 11.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample values.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X ≤ x), the fraction of samples with value ≤ x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// InverseAt returns the smallest sample value x such that P(X ≤ x) ≥ p.
func (c *CDF) InverseAt(p float64) float64 {
	if len(c.sorted) == 0 {
		panic("stats: inverse CDF of empty sample set")
	}
	if p <= 0 {
		return c.sorted[0]
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Len returns the number of samples in the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// FractionBelow returns the fraction of samples in a that are strictly
// smaller than threshold. Figure 11's commentary ("81.7% of the hardware
// samples that Spotlight selects are better than the best results that
// Spotlight-R finds") is computed this way.
func FractionBelow(a []float64, threshold float64) float64 {
	if len(a) == 0 {
		return 0
	}
	n := 0
	for _, x := range a {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

// TopQuantileOverlap returns the fraction of indices shared between the
// best q-quantile of a and the best q-quantile of b, where "best" means
// smallest value (costs are minimized). This implements the §VII-D metric
// ("roughly 24% of the top 20% of samples are correctly predicted") and the
// §VII-F MAESTRO/Timeloop agreement metric.
func TopQuantileOverlap(a, b []float64, q float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: overlap length mismatch %d vs %d", len(a), len(b)))
	}
	k := int(math.Round(q * float64(len(a))))
	if k <= 0 {
		return 0
	}
	topA := bestK(a, k)
	topB := bestK(b, k)
	shared := 0
	for i := range topA {
		if topA[i] && topB[i] {
			shared++
		}
	}
	return float64(shared) / float64(k)
}

// BottomQuantileOverlap is TopQuantileOverlap over the *largest* values.
func BottomQuantileOverlap(a, b []float64, q float64) float64 {
	na := negate(a)
	nb := negate(b)
	return TopQuantileOverlap(na, nb, q)
}

func negate(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = -x
	}
	return out
}

// bestK marks the indices of the k smallest values of v.
func bestK(v []float64, k int) []bool {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	mark := make([]bool, len(v))
	for _, i := range idx[:k] {
		mark[i] = true
	}
	return mark
}

// Normalize divides each element of v by the maximum of v, as done for the
// per-model feature importances in Figure 9. A zero or empty input is
// returned unchanged (as a copy).
func Normalize(v []float64) []float64 {
	out := append([]float64(nil), v...)
	if len(out) == 0 {
		return out
	}
	m := Max(out)
	if m == 0 {
		return out
	}
	for i := range out {
		out[i] /= m
	}
	return out
}
