package core

import (
	"math"
	"math/rand"
	"testing"

	"spotlight/internal/gp"
)

// syntheticCandidates draws n 1-D feature vectors uniform on [0, 10).
func syntheticCandidates(rng *rand.Rand, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{rng.Float64() * 10}
	}
	return out
}

func TestDABOConvergesOnSmoothFunction(t *testing.T) {
	// Minimize (x-3)² + 0.1. After training, daBO's suggestions should
	// sit much closer to 3 than random sampling does.
	cost := func(x float64) float64 { return (x-3)*(x-3) + 0.1 }
	rng := rand.New(rand.NewSource(1))
	d := NewDABO(gp.RBF{LengthScale: 2, Variance: 1}, rng, WithWarmup(5), WithRefitEvery(1))

	for i := 0; i < 40; i++ {
		cands := syntheticCandidates(rng, 32)
		idx := d.SuggestIndex(cands)
		x := cands[idx][0]
		d.Observe(cands[idx], cost(x))
	}
	// Measure where the trained optimizer points.
	var sumDist float64
	const probes = 20
	for i := 0; i < probes; i++ {
		cands := syntheticCandidates(rng, 64)
		idx := d.SuggestIndex(cands)
		sumDist += math.Abs(cands[idx][0] - 3)
	}
	mean := sumDist / probes
	// Random choice over [0,10) has expected distance ≈ 2.6 from x=3.
	if mean > 1.0 {
		t.Fatalf("trained daBO mean distance to optimum = %v, want < 1.0", mean)
	}
}

func TestDABOAvoidsInvalidRegion(t *testing.T) {
	// Points with x > 5 are infeasible. After training, suggestions
	// should rarely land there.
	rng := rand.New(rand.NewSource(2))
	d := NewDABO(gp.RBF{LengthScale: 2, Variance: 1}, rng, WithWarmup(5), WithRefitEvery(1))
	cost := func(x float64) float64 { return 10 - x } // tempts toward the cliff

	for i := 0; i < 60; i++ {
		cands := syntheticCandidates(rng, 32)
		idx := d.SuggestIndex(cands)
		x := cands[idx][0]
		if x > 5 {
			d.ObserveInvalid(cands[idx])
		} else {
			d.Observe(cands[idx], cost(x))
		}
	}
	var invalidPicks int
	const probes = 30
	for i := 0; i < probes; i++ {
		cands := syntheticCandidates(rng, 64)
		idx := d.SuggestIndex(cands)
		if cands[idx][0] > 5 {
			invalidPicks++
		}
	}
	// Random sampling would land in the invalid half ~50% of the time.
	if invalidPicks > probes/4 {
		t.Fatalf("daBO picked invalid region %d/%d times", invalidPicks, probes)
	}
}

func TestDABOWarmupIsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDABO(gp.Linear{Bias: 1}, rng, WithWarmup(10))
	if v, iv := d.Observations(); v != 0 || iv != 0 {
		t.Fatal("fresh daBO has observations")
	}
	// During warmup, suggestions must be valid indices without a model.
	for i := 0; i < 5; i++ {
		cands := syntheticCandidates(rng, 8)
		idx := d.SuggestIndex(cands)
		if idx < 0 || idx >= len(cands) {
			t.Fatalf("warmup suggestion out of range: %d", idx)
		}
		d.Observe(cands[idx], 1.0)
	}
	if v, _ := d.Observations(); v != 5 {
		t.Fatalf("observation count = %d, want 5", v)
	}
}

func TestDABOEmptyCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDABO(gp.Linear{Bias: 1}, rng)
	if idx := d.SuggestIndex(nil); idx != -1 {
		t.Fatalf("empty candidate suggestion = %d, want -1", idx)
	}
}

func TestDABOOnlyInvalidObservations(t *testing.T) {
	// With nothing valid yet, the optimizer must still function.
	rng := rand.New(rand.NewSource(5))
	d := NewDABO(gp.Linear{Bias: 1}, rng, WithWarmup(0), WithRefitEvery(1))
	for i := 0; i < 10; i++ {
		cands := syntheticCandidates(rng, 8)
		idx := d.SuggestIndex(cands)
		if idx < 0 || idx >= len(cands) {
			t.Fatalf("suggestion out of range with invalid-only data: %d", idx)
		}
		d.ObserveInvalid(cands[idx])
	}
}

func TestDABOAllInvalidPenaltyWellDefined(t *testing.T) {
	// Regression: with zero valid observations the penalty used to be
	// derived from an empty worst-valid scan. The surrogate must instead
	// train on the explicit all-invalid penalty and stay finite.
	for _, kernel := range []gp.Kernel{gp.Linear{Bias: 1}, gp.RBF{LengthScale: 1, Variance: 1}} {
		rng := rand.New(rand.NewSource(5))
		d := NewDABO(kernel, rng, WithWarmup(0), WithRefitEvery(1))
		for i := 0; i < 8; i++ {
			d.ObserveInvalid([]float64{float64(i), 1})
		}
		d.SuggestIndex([][]float64{{0, 1}, {4, 1}}) // forces a fit
		m := d.Surrogate()
		if m == nil {
			t.Fatalf("%s: no surrogate after invalid-only observations", kernel.Name())
		}
		mean, std, err := m.Predict([]float64{3, 1})
		if err != nil {
			t.Fatalf("%s: predict failed: %v", kernel.Name(), err)
		}
		if math.IsNaN(mean) || math.IsInf(mean, 0) || math.IsNaN(std) || math.IsInf(std, 0) {
			t.Fatalf("%s: non-finite posterior (%v, %v)", kernel.Name(), mean, std)
		}
		// All targets equal the constant penalty, so the posterior mean is
		// flat at that constant.
		if math.Abs(mean-allInvalidPenalty) > 1e-6 {
			t.Fatalf("%s: mean = %v, want ≈ %v", kernel.Name(), mean, allInvalidPenalty)
		}
	}
}

// denseLinear defeats DABO's primal fast-path type assertion so the same
// linear kernel runs through the dense GP, for cross-checking.
type denseLinear struct{ gp.Linear }

func (denseLinear) Name() string { return "linear-dense" }

func TestDABOPrimalAgreesWithDenseGP(t *testing.T) {
	// The primal fast path and the dense GP are the same posterior, so
	// two otherwise-identical optimizers must make identical suggestions.
	lin := gp.Linear{Bias: 1}
	fast := NewDABO(lin, rand.New(rand.NewSource(12)), WithWarmup(0), WithRefitEvery(1))
	slow := NewDABO(denseLinear{lin}, rand.New(rand.NewSource(12)), WithWarmup(0), WithRefitEvery(1))
	if fast.Surrogate() != nil || slow.Surrogate() != nil {
		t.Fatal("surrogate before data")
	}
	data := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		x := []float64{data.Float64() * 4, data.NormFloat64()}
		if i%7 == 3 {
			fast.ObserveInvalid(x)
			slow.ObserveInvalid(x)
			continue
		}
		y := 2*x[0] - x[1] + 0.05*data.NormFloat64()
		fast.Observe(x, y)
		slow.Observe(x, y)
	}
	for trial := 0; trial < 10; trial++ {
		cands := make([][]float64, 16)
		for i := range cands {
			cands[i] = []float64{data.Float64() * 4, data.NormFloat64()}
		}
		fi, si := fast.SuggestIndex(cands), slow.SuggestIndex(cands)
		if fi != si {
			t.Fatalf("trial %d: primal picked %d, dense picked %d", trial, fi, si)
		}
	}
}

func TestDABOSurrogateExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDABO(gp.Linear{Bias: 1}, rng, WithWarmup(0), WithRefitEvery(1))
	if d.Surrogate() != nil {
		t.Fatal("surrogate available before any data")
	}
	for i := 0; i < 10; i++ {
		x := float64(i)
		d.Observe([]float64{x}, 1+x)
	}
	if d.Surrogate() == nil {
		t.Fatal("surrogate unavailable after observations")
	}
	if got := len(d.ValidObservations()); got != 10 {
		t.Fatalf("valid observations = %d, want 10", got)
	}
}

func TestDABOObservationCopied(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDABO(gp.Linear{Bias: 1}, rng)
	f := []float64{1, 2}
	d.Observe(f, 3)
	f[0] = 99
	if d.ValidObservations()[0][0] != 1 {
		t.Fatal("daBO aliased the caller's feature slice")
	}
}

func TestDABOKappaControlsExploration(t *testing.T) {
	// With identical observations, a high-kappa optimizer must pick
	// candidates with higher predictive uncertainty at least sometimes
	// when a low-kappa one exploits the known minimum.
	train := func(kappa float64, seed int64) *DABO {
		rng := rand.New(rand.NewSource(seed))
		d := NewDABO(gp.RBF{LengthScale: 0.5, Variance: 1}, rng,
			WithWarmup(0), WithRefitEvery(1), WithKappa(kappa))
		// Observations only in [0, 2]: far region is unexplored.
		for i := 0; i < 20; i++ {
			x := rng.Float64() * 2
			d.Observe([]float64{x}, 1+(x-1)*(x-1))
		}
		return d
	}
	// Candidates: near the observed minimum and in the unexplored region.
	cands := [][]float64{{1.0}, {9.0}}
	exploit := train(0.01, 1)
	explore := train(50, 1)
	if idx := exploit.SuggestIndex(cands); idx != 0 {
		t.Fatalf("low-kappa optimizer explored (picked %d)", idx)
	}
	if idx := explore.SuggestIndex(cands); idx != 1 {
		t.Fatalf("high-kappa optimizer exploited (picked %d)", idx)
	}
}

func TestDABORefitEveryBatchesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDABO(gp.Linear{Bias: 1}, rng, WithWarmup(0), WithRefitEvery(5))
	for i := 0; i < 3; i++ {
		d.Observe([]float64{float64(i)}, float64(i+1))
	}
	// The linear surrogate is refit in place, so a refit shows as a
	// changed prediction rather than a new model.
	predict := func() float64 {
		m := d.Surrogate()
		if m == nil {
			t.Fatal("no surrogate")
		}
		mean, _, err := m.Predict([]float64{5})
		if err != nil {
			t.Fatal(err)
		}
		return mean
	}
	m1 := predict()
	// Two more observations stay under the refit threshold: same model.
	d.Observe([]float64{10}, 11)
	if predict() != m1 {
		t.Fatal("surrogate refit before the staleness threshold")
	}
	// Enough new observations force a refit.
	for i := 0; i < 5; i++ {
		d.Observe([]float64{float64(20 + i)}, float64(21+i))
	}
	if predict() == m1 {
		t.Fatal("surrogate not refit after the staleness threshold")
	}
}

func TestDABOPenaltyScalesWithWorstValid(t *testing.T) {
	// The invalid-point penalty tracks the worst valid observation, so a
	// surrogate trained with both must predict invalid regions as worse
	// than anything valid.
	rng := rand.New(rand.NewSource(9))
	d := NewDABO(gp.RBF{LengthScale: 1, Variance: 1}, rng, WithWarmup(0), WithRefitEvery(1))
	for i := 0; i < 15; i++ {
		x := rng.Float64() * 3
		d.Observe([]float64{x}, 10+x)
	}
	for i := 0; i < 15; i++ {
		d.ObserveInvalid([]float64{8 + rng.Float64()})
	}
	m := d.Surrogate()
	if m == nil {
		t.Fatal("no surrogate")
	}
	validMean, _, err1 := m.Predict([]float64{1.5})
	invalidMean, _, err2 := m.Predict([]float64{8.5})
	if err1 != nil || err2 != nil {
		t.Fatalf("predict failed: %v %v", err1, err2)
	}
	if invalidMean <= validMean {
		t.Fatalf("invalid region predicted better (%v) than valid (%v)", invalidMean, validMean)
	}
}

func TestDABONonFiniteCostDemotedToInvalid(t *testing.T) {
	d := NewDABO(gp.Linear{Bias: 1}, rand.New(rand.NewSource(1)))
	d.Observe([]float64{1, 2}, math.NaN())
	d.Observe([]float64{3, 4}, math.Inf(1))
	d.Observe([]float64{5, 6}, math.Inf(-1))
	valid, invalid := d.Observations()
	if valid != 0 || invalid != 3 {
		t.Fatalf("observations = (%d valid, %d invalid), want (0, 3)", valid, invalid)
	}
}

func TestDABONonFiniteFeaturesDropped(t *testing.T) {
	d := NewDABO(gp.Linear{Bias: 1}, rand.New(rand.NewSource(1)))
	d.Observe([]float64{math.NaN(), 1}, 10)
	d.Observe([]float64{math.Inf(1), 1}, 10)
	d.ObserveInvalid([]float64{1, math.NaN()})
	valid, invalid := d.Observations()
	if valid != 0 || invalid != 0 {
		t.Fatalf("observations = (%d valid, %d invalid), want none recorded", valid, invalid)
	}
	// A clean observation after the garbage must still work.
	d.Observe([]float64{1, 2}, 10)
	if valid, _ := d.Observations(); valid != 1 {
		t.Fatalf("clean observation not recorded")
	}
}

func TestDABODegradesAfterRepeatedFitFailures(t *testing.T) {
	d := NewDABO(gp.RBF{LengthScale: 1, Variance: 1}, rand.New(rand.NewSource(2)),
		WithWarmup(1), WithRefitEvery(1))
	for i := 0; i < 4; i++ {
		d.Observe([]float64{float64(i), float64(i * i)}, float64(10+i))
	}
	// Corrupt the stored targets directly (Observe itself rejects
	// non-finite input), simulating a pathological observation set that
	// makes every dense fit fail.
	d.y[0] = math.NaN()
	cands := [][]float64{{0, 0}, {1, 1}, {2, 4}}
	for i := 0; i < maxFitFailures; i++ {
		if d.Degraded() {
			t.Fatalf("degraded after only %d failed fits", i)
		}
		if idx := d.SuggestIndex(cands); idx < 0 || idx >= len(cands) {
			t.Fatalf("SuggestIndex returned %d during fit failures", idx)
		}
	}
	if !d.Degraded() {
		t.Fatalf("not degraded after %d failed fits", maxFitFailures)
	}
	// Degraded mode must keep suggesting (randomly) and never re-fit.
	for i := 0; i < 10; i++ {
		if idx := d.SuggestIndex(cands); idx < 0 || idx >= len(cands) {
			t.Fatalf("SuggestIndex returned %d while degraded", idx)
		}
	}
}

func TestDABOFitFailureRecoveryResetsCounter(t *testing.T) {
	d := NewDABO(gp.RBF{LengthScale: 1, Variance: 1}, rand.New(rand.NewSource(3)),
		WithWarmup(1), WithRefitEvery(1))
	for i := 0; i < 4; i++ {
		d.Observe([]float64{float64(i)}, float64(10+i))
	}
	d.y[0] = math.NaN()
	cands := [][]float64{{0}, {1}}
	d.SuggestIndex(cands) // one failed fit
	d.y[0] = math.Log(10) // the data heals before the failure budget is spent
	d.SuggestIndex(cands)
	if d.fitAttempts != 0 {
		t.Fatalf("fit failure counter = %d after a successful fit, want 0", d.fitAttempts)
	}
	if d.Degraded() {
		t.Fatal("degraded despite a successful fit")
	}
}

func TestDABOScoresCandidatesMatchesSuggestIndex(t *testing.T) {
	d := NewDABO(gp.Linear{Bias: 1}, rand.New(rand.NewSource(6)), WithWarmup(3))
	// Warmup: the predicate is false and SuggestIndex never reads the
	// rows, so unfilled (nil) rows are fine.
	unfilled := make([][]float64, 8)
	for i := 0; i < 3; i++ {
		if d.ScoresCandidates() {
			t.Fatalf("scores during warmup after %d observations", i)
		}
		if idx := d.SuggestIndex(unfilled); idx < 0 || idx >= len(unfilled) {
			t.Fatalf("warmup suggestion out of range: %d", idx)
		}
		d.Observe([]float64{float64(i)}, float64(1+i))
	}
	if !d.ScoresCandidates() {
		t.Fatal("does not score after warmup with a fittable surrogate")
	}
	if idx := d.SuggestIndex(syntheticCandidates(rand.New(rand.NewSource(7)), 8)); idx < 0 || idx >= 8 {
		t.Fatalf("scored suggestion out of range: %d", idx)
	}
}

func TestDABOScoresCandidatesFitsOncePerSuggestion(t *testing.T) {
	// Asking the predicate before SuggestIndex must not cost a second fit
	// attempt: with a failing surrogate, each (ask, suggest) pair spends
	// one attempt of the failure budget, exactly like a bare SuggestIndex.
	newFailing := func() *DABO {
		d := NewDABO(gp.RBF{LengthScale: 1, Variance: 1}, rand.New(rand.NewSource(8)),
			WithWarmup(1), WithRefitEvery(1))
		for i := 0; i < 4; i++ {
			d.Observe([]float64{float64(i)}, float64(10+i))
		}
		d.y[0] = math.NaN()
		return d
	}
	asked, bare := newFailing(), newFailing()
	cands := [][]float64{{0}, {1}, {2}}
	for i := 0; i < maxFitFailures+2; i++ {
		if asked.ScoresCandidates() {
			t.Fatal("predicts scoring with an unfittable surrogate")
		}
		a, b := asked.SuggestIndex(cands), bare.SuggestIndex(cands)
		if a != b || asked.fitAttempts != bare.fitAttempts {
			t.Fatalf("round %d: asked (idx %d, %d attempts) diverged from bare (idx %d, %d attempts)",
				i, a, asked.fitAttempts, b, bare.fitAttempts)
		}
	}
}
