package exp

import (
	"math"
	"testing"
)

// TestNoWorse: a candidate shifted up rejects, one shifted down or equal
// does not, and the report carries both medians and U.
func TestNoWorse(t *testing.T) {
	base := []float64{10, 11, 12, 13, 14}
	worse := []float64{20, 21, 22, 23, 24}
	c := NoWorse(base, worse)
	if c.BaseMedian != 12 || c.CandMedian != 22 || c.U != 25 {
		t.Fatalf("report %+v", c)
	}
	if math.Abs(c.P-1.0/252) > 1e-12 || !c.Worse(0.01) {
		t.Fatalf("a uniformly worse candidate: %v", c)
	}
	if c := NoWorse(base, []float64{1, 2, 3, 4, 5}); c.Worse(0.5) || c.U != 0 {
		t.Fatalf("a better candidate: %v", c)
	}
	if c := NoWorse(base, base); c.Worse(0.05) {
		t.Fatalf("an identical candidate: %v", c)
	}
	if got, want := NoWorse(base, worse).String(), "median 12 → 22, U = 25, p = 0.00397"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
