package gp

import (
	"fmt"
	"math"
	"sync"

	"spotlight/internal/linalg"
)

// This file implements the primal form of the linear-kernel GP. The dual
// form in gp.go prices every kernel alike: an n×n Cholesky per fit
// (O(n³)) and an O(n²) solve per prediction. But the paper's default
// kernel k(x,y) = bias + x·y has a finite feature map φ(x) = [√bias, x]
// of dimension D = d+1 (a dozen or so for the Figure 4 feature spaces),
// so the identical posterior can be computed from the D×D system
//
//	A = Φ̃ᵀΦ̃ + σ²I,   w = A⁻¹Φ̃ᵀỹ
//	mean(x*) = φ̃*·w,   var(x*) = σ²(1 + φ̃*ᵀA⁻¹φ̃*)
//
// (push-through identity: Φᵀ(ΦΦᵀ+σ²I)⁻¹ = (ΦᵀΦ+σ²I)⁻¹Φᵀ), where tildes
// denote the same per-feature/target standardization the dual form
// applies. PrimalStats maintains the raw second moments incrementally —
// one rank-1 update per observation, O(d²) — and Fit assembles and
// factorizes the standardized D×D system in O(d³), independent of n.
// Prediction costs O(d) for the mean and O(d²) for the variance.
//
// daBO's invalid-region penalty retargets every infeasible observation
// whenever the worst valid cost changes, which would break a naive
// incremental design; penalized rows are therefore accumulated as a
// separate moment group whose shared target is supplied at Fit time.

// PrimalStats accumulates the sufficient statistics of a linear-kernel
// GP incrementally. Add and AddPenalized are O(d²) rank-1 updates; Fit
// produces an immutable fitted PrimalLinear in O(d³) regardless of how
// many observations were absorbed.
type PrimalStats struct {
	bias  float64
	noise float64
	dim   int // fixed by the first Add/AddPenalized

	n   int            // valid observations
	m   *linalg.Matrix // Σ u·uᵀ over valid rows, u = [1, x], (d+1)×(d+1)
	ty  []float64      // Σ y·u over valid rows
	syy float64        // Σ y² over valid rows

	pn int            // penalized observations (shared target set at Fit)
	pm *linalg.Matrix // Σ u·uᵀ over penalized rows
}

// NewPrimalStats returns an empty accumulator for the kernel
// k(x,y) = bias + x·y with the given observation noise variance.
func NewPrimalStats(bias, noise float64) *PrimalStats {
	if noise <= 0 {
		noise = 1e-6
	}
	return &PrimalStats{bias: bias, noise: noise}
}

// Counts returns how many valid and penalized observations have been
// absorbed.
func (p *PrimalStats) Counts() (valid, penalized int) { return p.n, p.pn }

// Add absorbs one valid observation (feature vector x, target y) as a
// rank-1 update of the raw moment matrices. All observations must share
// one dimensionality.
func (p *PrimalStats) Add(x []float64, y float64) {
	p.ensureDim(len(x))
	p.n++
	accumulate(p.m, x)
	p.ty[0] += y
	for j, v := range x {
		p.ty[j+1] += y * v
	}
	p.syy += y * y
}

// Reset empties the accumulator for a new dataset of the same width:
// every moment and count goes to zero, and the moment matrices keep
// their storage. Absorbing and fitting afterwards computes exactly what
// a new accumulator would, and allocates nothing.
func (p *PrimalStats) Reset() {
	p.n, p.pn, p.syy = 0, 0, 0
	if p.m != nil {
		clear(p.m.Data)
		clear(p.pm.Data)
		clear(p.ty)
	}
}

// AddPenalized absorbs one observation whose target is the shared
// penalty value chosen later, at Fit time.
func (p *PrimalStats) AddPenalized(x []float64) {
	p.ensureDim(len(x))
	p.pn++
	accumulate(p.pm, x)
}

func (p *PrimalStats) ensureDim(d int) {
	if p.m == nil {
		p.dim = d
		p.m = linalg.NewMatrix(d+1, d+1)
		p.pm = linalg.NewMatrix(d+1, d+1)
		p.ty = make([]float64, d+1)
	}
	if d != p.dim {
		panic(fmt.Sprintf("gp: primal observation has %d features, accumulator holds %d", d, p.dim))
	}
}

// accumulate adds u·uᵀ for u = [1, x] to the upper triangle of m (the
// lower triangle is never read before Fit mirrors it).
func accumulate(m *linalg.Matrix, x []float64) {
	m.Set(0, 0, m.At(0, 0)+1)
	row0 := m.Row(0)
	for j, v := range x {
		row0[j+1] += v
	}
	for j, vj := range x {
		row := m.Row(j + 1)
		for k := j; k < len(x); k++ {
			row[k+1] += vj * x[k]
		}
	}
}

// finite reports whether every accumulated moment is a finite number; a
// single non-finite observation slipped past the caller's filters would
// otherwise surface only as NaN predictions much later.
func (p *PrimalStats) finite() bool {
	for j := 0; j <= p.dim; j++ {
		for k := j; k <= p.dim; k++ {
			if v := p.m.At(j, k) + p.pm.At(j, k); math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		if v := p.ty[j]; math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return !(math.IsNaN(p.syy) || math.IsInf(p.syy, 0))
}

// constRelTol is the relative-variance floor below which a feature (or
// the target) is treated as constant and its scale clamped to 1, exactly
// as the dual form clamps an exactly-zero standard deviation. Moment
// subtraction cannot distinguish relative variances below ~1e-12 from
// cancellation noise, so near-constant columns are folded into the same
// clamp rather than standardized by a garbage scale.
const constRelTol = 1e-12

// momentScale derives (mean, std) from a count, a sum, and a sum of
// squares, with the dual form's clamping rules.
func momentScale(n float64, sum, sumSq float64) (mean, std float64) {
	mean = sum / n
	msq := sumSq / n
	v := msq - mean*mean
	if n < 2 || v <= constRelTol*msq {
		return mean, 1
	}
	return mean, math.Sqrt(v)
}

// Fit assembles the standardized primal system — penalized rows take the
// given target — and returns the fitted surrogate. It returns ErrNoData
// when nothing has been absorbed. The accumulator is unchanged and can
// keep absorbing observations for the next fit.
func (p *PrimalStats) Fit(penalty float64) (*PrimalLinear, error) {
	m := new(PrimalLinear)
	if err := p.FitInto(m, penalty); err != nil {
		return nil, err
	}
	return m, nil
}

// FitInto is Fit into a caller-owned model: it refits m in place. The
// system is assembled and solved in pooled scratch and copied into m
// only once the factorization succeeds, so on error m is exactly the
// model it was. In steady state only the first fit of m, which gives m
// its buffers, allocates.
func (p *PrimalStats) FitInto(m *PrimalLinear, penalty float64) error {
	nt := p.n + p.pn
	if nt == 0 {
		return ErrNoData
	}
	if math.IsNaN(penalty) || math.IsInf(penalty, 0) {
		return fmt.Errorf("%w: penalty %v", ErrNonFinite, penalty)
	}
	if !p.finite() {
		return fmt.Errorf("%w: accumulated moments", ErrNonFinite)
	}
	d := p.dim
	fn := float64(nt)
	sc := getFitScratch(d)
	defer fitScratches.Put(sc)
	next := &sc.fit
	next.bias, next.noise = p.bias, p.noise

	// Combined raw moments and target sums over valid + penalized rows:
	// penalized rows contribute penalty·u to the target sums.
	syy := p.syy + penalty*penalty*float64(p.pn)
	xMean, xStd := next.xMean, next.xStd
	for j := 0; j < d; j++ {
		xMean[j], xStd[j] = momentScale(fn, p.moment(0, j+1), p.moment(j+1, j+1))
	}
	yMean, yStd := momentScale(fn, p.target(0, penalty), syy)
	next.yMean, next.yStd = yMean, yStd

	// Standardized system A·w = b over the basis [√bias, x̃₁ … x̃d]; b is
	// built in w and solved in place.
	sb := math.Sqrt(p.bias)
	a, b := sc.a, next.w
	a.Set(0, 0, p.bias*fn+p.noise)
	b[0] = sb * (p.target(0, penalty) - fn*yMean) / yStd
	for j := 0; j < d; j++ {
		cross := sb * (p.moment(0, j+1) - fn*xMean[j]) / xStd[j]
		a.Set(0, j+1, cross)
		a.Set(j+1, 0, cross)
		b[j+1] = (p.target(j+1, penalty) - fn*yMean*xMean[j]) / (yStd * xStd[j])
		for k := j; k < d; k++ {
			v := (p.moment(j+1, k+1) - fn*xMean[j]*xMean[k]) / (xStd[j] * xStd[k])
			if k == j {
				v += p.noise
			}
			a.Set(j+1, k+1, v)
			a.Set(k+1, j+1, v)
		}
	}
	if err := next.chol.Factor(a); err != nil {
		return fmt.Errorf("gp: primal system factorization failed: %w", err)
	}
	next.chol.SolveVecTo(b, b)
	m.copyFrom(next)
	return nil
}

// fitScratch is FitInto's working set: the standardized system and the
// model it is solved into.
type fitScratch struct {
	a   *linalg.Matrix
	fit PrimalLinear
}

// fitScratches lends FitInto its working set, so refits share a few
// scratch systems instead of allocating one per call.
var fitScratches sync.Pool

// getFitScratch borrows scratch for a d-feature fit.
func getFitScratch(d int) *fitScratch {
	sc, _ := fitScratches.Get().(*fitScratch)
	if sc == nil || sc.a.Rows != d+1 {
		sc = &fitScratch{a: linalg.NewMatrix(d+1, d+1)}
		sc.fit.size(d)
	}
	return sc
}

// moment is the combined raw second moment Σ uⱼ·uₖ over valid and
// penalized rows (j <= k: only the upper triangle is accumulated).
func (p *PrimalStats) moment(j, k int) float64 { return p.m.At(j, k) + p.pm.At(j, k) }

// target is the combined target sum Σ y·uⱼ, penalized rows taking the
// given penalty as their target.
func (p *PrimalStats) target(j int, penalty float64) float64 {
	return p.ty[j] + penalty*p.pm.At(0, j)
}

// size gives m buffers for a d-feature fit, keeping the ones it has.
func (m *PrimalLinear) size(d int) {
	if len(m.xMean) == d && m.chol != nil {
		return
	}
	m.xMean = make([]float64, d)
	m.xStd = make([]float64, d)
	m.w = make([]float64, d+1)
	m.phi = make([]float64, d+1)
	m.sol = make([]float64, d+1)
	m.chol = &linalg.Cholesky{L: linalg.NewMatrix(d+1, d+1)}
}

// copyFrom makes m a copy of the fitted model src, in m's own buffers.
func (m *PrimalLinear) copyFrom(src *PrimalLinear) {
	m.size(len(src.xMean))
	m.bias, m.noise = src.bias, src.noise
	m.yMean, m.yStd = src.yMean, src.yStd
	copy(m.xMean, src.xMean)
	copy(m.xStd, src.xStd)
	copy(m.w, src.w)
	copy(m.chol.L.Data, src.chol.L.Data)
}

// PrimalLinear is a fitted primal-form linear surrogate. Its posterior
// matches the dual GP with kernel Linear{Bias: bias} and the same noise
// on the same data (see TestPrimalMatchesDualGP). Fit once, predict
// cheaply: O(d) mean, O(d²) standard deviation, no allocation. A model
// from Fit never changes; one passed to FitInto is refit in place. Like
// the dense GP it reuses scratch buffers, so it must not be used from
// multiple goroutines concurrently.
type PrimalLinear struct {
	bias, noise float64
	xMean, xStd []float64
	yMean, yStd float64
	w           []float64 // posterior weights over [√bias, x̃]
	chol        *linalg.Cholesky
	phi, sol    []float64 // scratch: standardized point, triangular solve
}

// Predict implements Predictor. It is the reference PredictBatch
// reproduces bit for bit.
func (p *PrimalLinear) Predict(x []float64) (mean, std float64, err error) {
	if len(x) != len(p.xMean) {
		return 0, 0, fmt.Errorf("gp: input has %d features, trained on %d", len(x), len(p.xMean))
	}
	p.phi[0] = math.Sqrt(p.bias)
	for j := range x {
		p.phi[j+1] = (x[j] - p.xMean[j]) / p.xStd[j]
	}
	mu := linalg.Dot(p.phi, p.w)
	// φᵀA⁻¹φ = ‖L⁻¹φ‖² — the forward solve alone is enough.
	p.chol.SolveLowerTo(p.sol, p.phi)
	mean, std = p.posterior(mu, linalg.Dot(p.sol, p.sol))
	return mean, std, nil
}

// posterior maps the standardized mean φ̃·w and q = ‖L⁻¹φ̃‖² to the
// predictive mean and standard deviation in target units.
func (p *PrimalLinear) posterior(mu, q float64) (mean, std float64) {
	if q < 0 {
		q = 0
	}
	variance := p.noise * (1 + q)
	return mu*p.yStd + p.yMean, math.Sqrt(variance) * p.yStd
}

// interleaveDim bounds the basis dimension d+1 that PredictBatch's
// four-way path handles; its forward-solve rows live on the stack.
// Larger models (and batch remainders) go through Predict.
const interleaveDim = 48

// PredictBatch implements Predictor. Candidates are predicted four at a
// time with their arithmetic interleaved, so four independent
// forward-solve dependency chains overlap instead of running back to
// back. Each candidate still sees exactly Predict's operation sequence
// — the same standardizing divisions, the same left-to-right sums for
// φ̃·w, each L⁻¹φ̃ row and ‖L⁻¹φ̃‖², the same division by the diagonal —
// so every output is bit-identical to Predict's. Remainders, rows of the
// wrong length and models wider than interleaveDim fall through to
// Predict, which also reports the errors.
func (p *PrimalLinear) PredictBatch(xs [][]float64, means, stds []float64) error {
	if len(means) != len(xs) || len(stds) != len(xs) {
		return fmt.Errorf("gp: batch size mismatch: %d inputs, %d/%d outputs",
			len(xs), len(means), len(stds))
	}
	d := len(p.xMean)
	i := 0
	if d+1 <= interleaveDim {
		var sol [4][interleaveDim]float64
		for ; i+4 <= len(xs); i += 4 {
			x := xs[i : i+4 : i+4]
			if len(x[0]) != d || len(x[1]) != d || len(x[2]) != d || len(x[3]) != d {
				break
			}
			p.predict4(x, &sol, means[i:i+4:i+4], stds[i:i+4:i+4])
		}
	}
	for ; i < len(xs); i++ {
		m, s, err := p.Predict(xs[i])
		if err != nil {
			return err
		}
		means[i], stds[i] = m, s
	}
	return nil
}

// predict4 is Predict for four rows of the trained width, interleaved.
// φ̃ᵢ is formed just before row i of the forward solve, its only other
// reader being the φ̃·w sum, which it joins in the same order.
func (p *PrimalLinear) predict4(x [][]float64, sol *[4][interleaveDim]float64, means, stds []float64) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	n := len(p.w)
	l := p.chol.L.Data[: n*n : n*n]
	s0, s1, s2, s3 := sol[0][:n], sol[1][:n], sol[2][:n], sol[3][:n]
	var mu0, mu1, mu2, mu3, q0, q1, q2, q3 float64
	for i := 0; i < n; i++ {
		var f0, f1, f2, f3 float64
		if i == 0 {
			sb := math.Sqrt(p.bias)
			f0, f1, f2, f3 = sb, sb, sb, sb
		} else {
			m, sd := p.xMean[i-1], p.xStd[i-1]
			f0 = (x0[i-1] - m) / sd
			f1 = (x1[i-1] - m) / sd
			f2 = (x2[i-1] - m) / sd
			f3 = (x3[i-1] - m) / sd
		}
		w := p.w[i]
		mu0 += f0 * w
		mu1 += f1 * w
		mu2 += f2 * w
		mu3 += f3 * w
		row := l[i*n : i*n+n]
		lk := row[:i]
		a0, a1, a2, a3 := s0[:len(lk)], s1[:len(lk)], s2[:len(lk)], s3[:len(lk)]
		for k, r := range lk {
			f0 -= r * a0[k]
			f1 -= r * a1[k]
			f2 -= r * a2[k]
			f3 -= r * a3[k]
		}
		diag := row[i]
		f0 /= diag
		f1 /= diag
		f2 /= diag
		f3 /= diag
		s0[i], s1[i], s2[i], s3[i] = f0, f1, f2, f3
		q0 += f0 * f0
		q1 += f1 * f1
		q2 += f2 * f2
		q3 += f3 * f3
	}
	means[0], stds[0] = p.posterior(mu0, q0)
	means[1], stds[1] = p.posterior(mu1, q1)
	means[2], stds[2] = p.posterior(mu2, q2)
	means[3], stds[3] = p.posterior(mu3, q3)
}
