package linalg

import (
	"fmt"
	"math"
)

// Helpers only the package's tests call: no production code builds a
// matrix from rows, multiplies one by a vector or takes a norm.

// NewMatrixFromRows builds a matrix from a slice of equal-length rows.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d vs %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("linalg: mulvec shape mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		y[i] = Dot(a.Row(i), x)
	}
	return y
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}
