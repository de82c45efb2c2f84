package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

const primalTol = 1e-8

// comparePosteriors fits the dual GP and asserts the primal surrogate
// agrees at every probe within primalTol.
func comparePosteriors(t *testing.T, bias, noise float64, x [][]float64, y []float64,
	primal *PrimalLinear, probes [][]float64) {
	t.Helper()
	dual := New(Linear{Bias: bias}, noise)
	if err := dual.Fit(x, y); err != nil {
		t.Fatalf("dual fit failed: %v", err)
	}
	for _, p := range probes {
		dm, ds, err := dual.Predict(p)
		if err != nil {
			t.Fatalf("dual predict failed: %v", err)
		}
		pm, ps, err := primal.Predict(p)
		if err != nil {
			t.Fatalf("primal predict failed: %v", err)
		}
		// 1e-8 relative to the posterior's magnitude (floored at 1e-8
		// absolute): both forms solve systems with condition number
		// ~‖φ‖²/σ², so agreement scales with the output.
		tolM := primalTol * math.Max(1, math.Abs(dm))
		tolS := primalTol * math.Max(1, math.Abs(ds))
		if math.Abs(dm-pm) > tolM || math.Abs(ds-ps) > tolS {
			t.Fatalf("posterior mismatch at %v:\n  dual   mean=%.12g std=%.12g\n  primal mean=%.12g std=%.12g",
				p, dm, ds, pm, ps)
		}
	}
}

func randomData(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = 3*rng.NormFloat64() + 2
		}
		y[i] = 10*rng.NormFloat64() - 5
	}
	return x, y
}

// TestPrimalMatchesDualGP is the §V-A property test: the primal-form
// linear surrogate must produce the same posterior mean and standard
// deviation as the dense dual GP with kernel Linear{Bias} on identical
// data, across sizes from a single observation to well past the feature
// dimension.
func TestPrimalMatchesDualGP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 8, 40, 100} {
		for _, d := range []int{1, 3, 11} {
			for _, bias := range []float64{0, 1, 4} {
				x, y := randomData(rng, n, d)
				primal, err := FitPrimalLinear(bias, 1e-4, x, y)
				if err != nil {
					t.Fatalf("n=%d d=%d bias=%v: primal fit failed: %v", n, d, bias, err)
				}
				probes, _ := randomData(rng, 16, d)
				probes = append(probes, x[0]) // on-sample probe
				comparePosteriors(t, bias, 1e-4, x, y, primal, probes)
			}
		}
	}
}

// TestPrimalMatchesDualGPConstantFeature covers the standardization edge
// cases: a constant (zero-variance) feature column, and all-constant
// targets — both clamp their scale to 1 in the dual form.
func TestPrimalMatchesDualGPConstantFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := randomData(rng, 25, 4)
	for i := range x {
		x[i][2] = 6.5 // constant column
	}
	primal, err := FitPrimalLinear(1, 1e-4, x, y)
	if err != nil {
		t.Fatalf("primal fit failed: %v", err)
	}
	probes, _ := randomData(rng, 8, 4)
	comparePosteriors(t, 1, 1e-4, x, y, primal, probes)
}

func TestPrimalMatchesDualGPConstantTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := randomData(rng, 25, 4)
	for i := range y {
		y[i] = -3.25
	}
	primal, err := FitPrimalLinear(1, 1e-4, x, y)
	if err != nil {
		t.Fatalf("primal fit failed: %v", err)
	}
	probes, _ := randomData(rng, 8, 4)
	comparePosteriors(t, 1, 1e-4, x, y, primal, probes)
	// A constant target must predict itself everywhere.
	m, _, err := primal.Predict(probes[0])
	if err != nil || math.Abs(m-(-3.25)) > primalTol {
		t.Fatalf("constant-target mean = %v (err %v), want -3.25", m, err)
	}
}

// TestPrimalPenaltyGroupMatchesDual checks the incremental penalty-group
// path: AddPenalized rows with a Fit-time target must equal a dual GP
// fit on the explicit concatenation.
func TestPrimalPenaltyGroupMatchesDual(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := randomData(rng, 30, 5)
	inv, _ := randomData(rng, 12, 5)
	const penalty = 4.75

	s := NewPrimalStats(1, 1e-4)
	for i := range x {
		s.Add(x[i], y[i])
	}
	for _, f := range inv {
		s.AddPenalized(f)
	}
	if v, p := s.Counts(); v != 30 || p != 12 {
		t.Fatalf("counts = (%d, %d), want (30, 12)", v, p)
	}
	primal, err := s.Fit(penalty)
	if err != nil {
		t.Fatalf("primal fit failed: %v", err)
	}

	allX := append(append([][]float64{}, x...), inv...)
	allY := append([]float64{}, y...)
	for range inv {
		allY = append(allY, penalty)
	}
	probes, _ := randomData(rng, 8, 5)
	comparePosteriors(t, 1, 1e-4, allX, allY, primal, probes)

	// Refitting the same stats with a different penalty must retarget
	// every penalized row — the behavior daBO relies on.
	primal2, err := s.Fit(penalty + 3)
	if err != nil {
		t.Fatalf("refit failed: %v", err)
	}
	for i := range allY[30:] {
		allY[30+i] = penalty + 3
	}
	comparePosteriors(t, 1, 1e-4, allX, allY, primal2, probes)
}

// TestPrimalIncrementalMatchesBatch interleaves Add calls with Fits, the
// way daBO refits mid-stream, and checks each snapshot against a batch
// fit of the data seen so far.
func TestPrimalIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := randomData(rng, 60, 6)
	s := NewPrimalStats(1, 1e-4)
	probes, _ := randomData(rng, 4, 6)
	for i := range x {
		s.Add(x[i], y[i])
		if (i+1)%20 != 0 {
			continue
		}
		snap, err := s.Fit(0)
		if err != nil {
			t.Fatalf("fit after %d: %v", i+1, err)
		}
		comparePosteriors(t, 1, 1e-4, x[:i+1], y[:i+1], snap, probes)
	}
}

func TestPrimalErrors(t *testing.T) {
	if _, err := NewPrimalStats(1, 1e-4).Fit(0); err == nil {
		t.Fatal("fit of empty accumulator succeeded")
	}
	if _, err := FitPrimalLinear(1, 1e-4, nil, nil); err == nil {
		t.Fatal("fit of empty dataset succeeded")
	}
	m, err := FitPrimalLinear(1, 1e-4, [][]float64{{1, 2}}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Predict([]float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := m.PredictBatch([][]float64{{1, 2}}, make([]float64, 2), make([]float64, 1)); err == nil {
		t.Fatal("batch size mismatch accepted")
	}
}

// TestPrimalPredictBatchAllocationFree pins the perf contract: batch
// prediction on a fitted primal surrogate performs no allocations.
func TestPrimalPredictBatchAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y := randomData(rng, 50, 11)
	m, err := FitPrimalLinear(1, 1e-4, x, y)
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := randomData(rng, 64, 11)
	means := make([]float64, len(cands))
	stds := make([]float64, len(cands))
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.PredictBatch(cands, means, stds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictBatch allocated %v times per run, want 0", allocs)
	}
}

// TestPredictBatchMatchesPredictBits pins PredictBatch to Predict bit
// for bit: the four-way interleaved path, its remainders, and a model
// too wide for it must all return exactly Predict's float64s, and a
// row of the wrong length must fail with Predict's error after writing
// exactly the rows before it.
func TestPredictBatchMatchesPredictBits(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// 1, 11 (Figure 4 software features) and 47 (the widest feature
	// mode) take the interleaved path; 60 exceeds interleaveDim.
	for _, d := range []int{1, 11, 47, 60} {
		x, y := randomData(rng, 3*d+5, d)
		s := NewPrimalStats(1, 1e-4)
		for i := range x {
			if i%4 == 3 {
				s.AddPenalized(x[i])
			} else {
				s.Add(x[i], y[i])
			}
		}
		m, err := s.Fit(40)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65} {
			cands, _ := randomData(rng, n, d)
			means := make([]float64, n)
			stds := make([]float64, n)
			if err := m.PredictBatch(cands, means, stds); err != nil {
				t.Fatalf("d=%d n=%d: %v", d, n, err)
			}
			for i, c := range cands {
				wm, ws, err := m.Predict(c)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(means[i]) != math.Float64bits(wm) || math.Float64bits(stds[i]) != math.Float64bits(ws) {
					t.Fatalf("d=%d n=%d row %d: batch (%v, %v), Predict (%v, %v)", d, n, i, means[i], stds[i], wm, ws)
				}
			}
		}

		cands, _ := randomData(rng, 9, d)
		cands[5] = cands[5][:d-1]
		means := make([]float64, len(cands))
		stds := make([]float64, len(cands))
		for i := range means {
			means[i], stds[i] = math.NaN(), math.NaN()
		}
		_, _, wantErr := m.Predict(cands[5])
		err = m.PredictBatch(cands, means, stds)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("d=%d short row: err = %v, want %v", d, err, wantErr)
		}
		for i := range cands {
			if i >= 5 {
				if !math.IsNaN(means[i]) || !math.IsNaN(stds[i]) {
					t.Fatalf("d=%d short row: row %d written after the error", d, i)
				}
				continue
			}
			wm, ws, _ := m.Predict(cands[i])
			if math.Float64bits(means[i]) != math.Float64bits(wm) || math.Float64bits(stds[i]) != math.Float64bits(ws) {
				t.Fatalf("d=%d short row: row %d = (%v, %v), Predict (%v, %v)", d, i, means[i], stds[i], wm, ws)
			}
		}
	}
}

func TestPrimalFitRejectsNonFiniteMoments(t *testing.T) {
	s := NewPrimalStats(1, 1e-6)
	s.Add([]float64{1, 2}, 1)
	s.Add([]float64{math.NaN(), 2}, 1) // slips past: Add does not filter
	if _, err := s.Fit(0); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}

func TestPrimalFitRejectsNonFinitePenalty(t *testing.T) {
	s := NewPrimalStats(1, 1e-6)
	s.Add([]float64{1, 2}, 1)
	s.AddPenalized([]float64{3, 4})
	if _, err := s.Fit(math.Inf(1)); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Inf penalty: err = %v, want ErrNonFinite", err)
	}
	if _, err := s.Fit(math.NaN()); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN penalty: err = %v, want ErrNonFinite", err)
	}
	if _, err := s.Fit(5); err != nil {
		t.Fatalf("finite penalty after rejections failed: %v", err)
	}
}
