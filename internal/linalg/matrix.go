// Package linalg provides the small dense linear algebra kernel needed by
// the Gaussian process surrogate: dense matrices, Cholesky factorization,
// triangular solves, and a handful of vector helpers.
//
// The package is deliberately minimal — the GP operates on at most a few
// hundred observations, so simple O(n^3) dense algorithms are the right
// tool and keep the module dependency-free.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product a*b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ErrNotPD reports that a matrix passed to Cholesky was not (numerically)
// positive definite even after jitter was applied.
var ErrNotPD = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A such that A = L·Lᵀ.
type Cholesky struct {
	L *Matrix
}

// NewCholesky factorizes the symmetric matrix a into a new factor; see
// Factor.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := new(Cholesky)
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factor factorizes the symmetric matrix a into c, reusing c.L's storage
// when it already has a's shape, so a hot loop that refactors into the
// same Cholesky allocates nothing. If the factorization fails it retries
// with exponentially increasing diagonal jitter up to maxJitter; GP
// kernel matrices are frequently near-singular, and jitter is the
// standard remedy. Returns ErrNotPD when no jitter in range succeeds, in
// which case c.L holds no usable factor.
func (c *Cholesky) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: cholesky of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	if c.L == nil || c.L.Rows != n || c.L.Cols != n {
		c.L = NewMatrix(n, n)
	} else {
		clear(c.L.Data) // the upper triangle of a factor reads as zero
	}
	const maxJitter = 1e-2
	jitter := 0.0
	for !c.factor(a, jitter) {
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
		if jitter > maxJitter {
			return ErrNotPD
		}
	}
	return nil
}

// factor attempts one factorization of a+jitter·I into c.L's lower
// triangle. Every entry an attempt reads was written earlier in the same
// attempt, so a retry may overwrite a failed attempt's partial factor.
func (c *Cholesky) factor(a *Matrix, jitter float64) bool {
	n := a.Rows
	l := c.L
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			d += l.At(j, k) * l.At(j, k)
		}
		d = a.At(j, j) + jitter - d
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, (a.At(i, j)-s)/ljj)
		}
	}
	return true
}

// SolveVec solves A·x = b for x using the factorization (forward then
// backward substitution).
func (c *Cholesky) SolveVec(b []float64) []float64 {
	x := make([]float64, len(b))
	c.SolveVecTo(x, b)
	return x
}

// SolveVecTo solves A·x = b into dst without allocating, for hot loops
// that reuse a scratch buffer. dst and b may be the same slice.
func (c *Cholesky) SolveVecTo(dst, b []float64) {
	c.SolveLowerTo(dst, b)
	c.backwardSolve(dst)
}

// SolveLowerTo solves the triangular system L·y = b into dst without
// allocating. dst and b may be the same slice. Solving against L alone
// is the cheap half of SolveVecTo and enough for quadratic forms:
// bᵀ·A⁻¹·b = ‖L⁻¹b‖².
func (c *Cholesky) SolveLowerTo(dst, b []float64) {
	n := c.L.Rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: solve length mismatch %d/%d vs %d", len(dst), len(b), n))
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.L.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s / row[i]
	}
}

// backwardSolve solves Lᵀ·x = y in place: x[i] depends only on y[i] and
// already-computed x[k] for k > i, so overwriting is safe.
func (c *Cholesky) backwardSolve(y []float64) {
	n := c.L.Rows
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.At(k, i) * y[k]
		}
		y[i] = s / c.L.At(i, i)
	}
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v, or 0 for fewer
// than two elements.
func StdDev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}
