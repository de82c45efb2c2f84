package gp

import "fmt"

// FitPrimalLinear fits the primal linear surrogate on a whole dataset in
// one call — the batch-oriented counterpart of New(Linear{bias},
// noise).Fit(x, y) and interchangeable with it (same posterior, built in
// O(n·d²) instead of O(n³)). Only the package's tests call it.
func FitPrimalLinear(bias, noise float64, x [][]float64, y []float64) (*PrimalLinear, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d inputs, %d targets", ErrNoData, len(x), len(y))
	}
	s := NewPrimalStats(bias, noise)
	for i, row := range x {
		s.Add(row, y[i])
	}
	return s.Fit(0)
}
