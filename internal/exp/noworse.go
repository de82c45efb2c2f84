package exp

import (
	"fmt"

	"spotlight/internal/stats"
)

// Comparison is NoWorse's report on a candidate's values against a
// base's, lower being better: both medians, the Mann–Whitney U of the
// candidate over the base, and the one-sided p-value of "the candidate
// is worse".
type Comparison struct {
	BaseMedian, CandMedian float64
	U, P                   float64
}

// NoWorse compares per-seed results of a changed search (cand) with
// those of the search it changes (base), lower being better, by a
// one-sided Mann–Whitney U test of whether cand tends to be larger
// (stats.RankSum). A small P rejects "no worse".
func NoWorse(base, cand []float64) Comparison {
	u, p := stats.RankSum(base, cand)
	return Comparison{BaseMedian: stats.Median(base), CandMedian: stats.Median(cand), U: u, P: p}
}

// Worse reports whether the test rejects "no worse" at level alpha.
func (c Comparison) Worse(alpha float64) bool { return c.P < alpha }

// String formats the report as it is quoted in change notes.
func (c Comparison) String() string {
	return fmt.Sprintf("median %.4g → %.4g, U = %g, p = %.3g", c.BaseMedian, c.CandMedian, c.U, c.P)
}
