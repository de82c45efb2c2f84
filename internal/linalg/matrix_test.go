package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestNewMatrixFromRowsEmpty(t *testing.T) {
	m := NewMatrixFromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("shape = %dx%d, want 0x0", m.Rows, m.Cols)
	}
}

func TestNewMatrixFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewMatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape = %dx%d, want 3x2", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	y := MulVec(a, []float64{4, 5, 6})
	if y[0] != 16 || y[1] != 15 {
		t.Fatalf("MulVec = %v, want [16 15]", y)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot product incorrect")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("norm incorrect")
	}
}

func TestCholeskyIdentity(t *testing.T) {
	n := 4
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("cholesky failed: %v", err)
	}
	for i := 0; i < n; i++ {
		if !almostEqual(ch.L.At(i, i), 1, 1e-9) {
			t.Fatalf("L[%d][%d] = %v, want 1", i, i, ch.L.At(i, i))
		}
	}
	x := ch.SolveVec([]float64{1, 2, 3, 4})
	for i, v := range []float64{1, 2, 3, 4} {
		if !almostEqual(x[i], v, 1e-9) {
			t.Fatalf("solve identity x[%d] = %v, want %v", i, x[i], v)
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] => L = [[2,0],[1,sqrt(2)]]
	a := NewMatrixFromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("cholesky failed: %v", err)
	}
	if !almostEqual(ch.L.At(0, 0), 2, 1e-9) ||
		!almostEqual(ch.L.At(1, 0), 1, 1e-9) ||
		!almostEqual(ch.L.At(1, 1), math.Sqrt2, 1e-9) {
		t.Fatalf("unexpected factor %v", ch.L.Data)
	}
}

func TestCholeskySolveRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		// Build SPD matrix A = B·Bᵀ + n·I.
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := Mul(b, b.T())
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rhs := MulVec(a, xTrue)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: cholesky failed: %v", trial, err)
		}
		x := ch.SolveVec(rhs)
		for i := range x {
			if !almostEqual(x[i], xTrue[i], 1e-6) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 0}, {0, -5}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected failure for indefinite matrix")
	}
}

func TestCholeskyJitterRecoversSingular(t *testing.T) {
	// Rank-deficient PSD matrix: ones matrix. Jitter should rescue it.
	n := 3
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = 1
	}
	if _, err := NewCholesky(a); err != nil {
		t.Fatalf("jitter did not rescue PSD matrix: %v", err)
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean incorrect")
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("stddev of single element should be 0")
	}
	if !almostEqual(StdDev([]float64{2, 4}), 1, 1e-12) {
		t.Fatal("stddev incorrect")
	}
}

// Property: for any SPD matrix built as B·Bᵀ+I, Cholesky reconstructs it.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := Mul(b, b.T())
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		recon := Mul(ch.L, ch.L.T())
		for i := range a.Data {
			if !almostEqual(recon.Data[i], a.Data[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		return almostEqual(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
