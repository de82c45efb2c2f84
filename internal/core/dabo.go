package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"spotlight/internal/gp"
	"spotlight/internal/obs"
)

// daboNoise is the surrogate's observation noise variance.
const daboNoise = 1e-4

// DABO is the domain-aware Bayesian optimizer of §V. It is agnostic to
// what is being searched: callers sample candidate design points in
// parameter space, transform them into feature vectors, and DABO ranks
// the batch with its surrogate's Lower Confidence Bound, returning the
// index of the candidate to evaluate next. Observed costs are modeled in
// log space because EDP and delay span many orders of magnitude.
//
// Invalid design points (the co-design space's infeasible regions) are
// first-class: ObserveInvalid records the feature vector, and at fit time
// those points receive a penalty cost above the worst valid observation,
// steering the surrogate away from infeasible regions — one of the two
// uses of domain information called out in §IV-B1.
type DABO struct {
	kernel     gp.Kernel
	kappa      float64
	warmup     int
	refitEvery int
	rng        *rand.Rand

	// Observations are stored flat in one store, in arrival order: x
	// holds the feature rows, dim values each, of valid and infeasible
	// points alike, and y each row's log cost, +Inf for an infeasible
	// row. capacity, when set, is the expected number of observations,
	// which sizes x and y at the first one.
	dim      int
	capacity int
	x        []float64
	y        []float64
	nvalid   int

	// primal is the incremental sufficient-statistics accumulator used
	// when the kernel is gp.Linear: fits cost O(d³) and predictions O(d)
	// instead of the dense GP's O(n³)/O(n²). Other kernels have no finite
	// feature map and fall back to the dense path. The primal surrogate
	// is refit in place into fit.
	primal      *gp.PrimalStats
	fit         gp.PrimalLinear
	model       gp.Predictor
	staleness   int
	fitAttempts int

	// Batch-prediction buffers for SuggestIndex.
	means, stds []float64

	// decided caches ScoresCandidates' answer (scores) until the next
	// SuggestIndex consumes it or an observation invalidates it, so a
	// caller asking first never triggers a second fit attempt.
	decided, scores bool

	// tracer receives dabo.fit / dabo.degraded events tagged with scope
	// ("hw" or "sw"); nil disables. Tracing never changes suggestions.
	tracer obs.Tracer
	scope  string
	// span, when set (via SetSpan, by the driver, around Suggest calls),
	// parents the fit events under the current hw.propose or sw.layer
	// span and routes them to the span's sink.
	span *obs.Span
}

// DABOOption configures a DABO instance.
type DABOOption func(*DABO)

// WithKappa sets the LCB exploration weight (default 1.5).
func WithKappa(k float64) DABOOption { return func(d *DABO) { d.kappa = k } }

// WithWarmup sets how many observations are collected with pure random
// suggestions before the surrogate is consulted (default 8).
func WithWarmup(n int) DABOOption { return func(d *DABO) { d.warmup = n } }

// WithRefitEvery sets how many new observations accumulate before the
// surrogate is refit (default 4). A linear-kernel refit is O(d³) from
// incrementally maintained statistics; other kernels pay the dense GP's
// O(n³), so batching refits keeps their search loop fast without
// materially changing behavior.
func WithRefitEvery(n int) DABOOption { return func(d *DABO) { d.refitEvery = n } }

// withCapacity sizes the observation store for n observations, so a
// search that knows its budget allocates it once instead of growing it.
func withCapacity(n int) DABOOption { return func(d *DABO) { d.capacity = n } }

// WithTracer attaches a tracer that receives one dabo.fit event per
// surrogate refit (duration, observation counts, and the fit outcome)
// and a dabo.degraded event if repeated fit failures demote the
// optimizer to random suggestion. scope tags the events with which
// search level this optimizer drives ("hw" or "sw"). Tracing is
// observe-only.
func WithTracer(tr obs.Tracer, scope string) DABOOption {
	return func(d *DABO) {
		d.tracer = tr
		d.scope = scope
	}
}

// SetSpan implements SpanCarrier: subsequent fit events are attributed
// to sp (and emitted to sp's tracer) until SetSpan(nil). The driver
// brackets Suggest calls with it; calls are goroutine-confined per the
// Strategy contract.
func (d *DABO) SetSpan(sp *obs.Span) { d.span = sp }

// NewDABO returns a daBO optimizer using the given kernel. The paper's
// configuration is a linear kernel (gp.Linear); §VII-D also evaluates
// gp.Matern52.
func NewDABO(kernel gp.Kernel, rng *rand.Rand, opts ...DABOOption) *DABO {
	d := &DABO{
		kernel:     kernel,
		kappa:      1.5,
		warmup:     8,
		refitEvery: 4,
		rng:        rng,
	}
	for _, o := range opts {
		o(d)
	}
	if lin, ok := kernel.(gp.Linear); ok {
		d.primal = gp.NewPrimalStats(lin.Bias, daboNoise)
	}
	return d
}

// reset returns d to a new optimizer's state for another search driven
// by rng: no observations, no surrogate, no fit failures, no span. It
// keeps d's options and the storage of its observation store, moment
// matrices and refit model, so the search that follows suggests exactly
// what it would on a new DABO without allocating them again.
func (d *DABO) reset(rng *rand.Rand) {
	d.rng = rng
	d.dim = 0
	d.x, d.y, d.nvalid = d.x[:0], d.y[:0], 0
	if d.primal != nil {
		d.primal.Reset()
	}
	d.model = nil
	d.staleness, d.fitAttempts = 0, 0
	d.decided, d.scores = false, false
	d.span = nil
}

// Observations returns the number of valid and invalid observations.
func (d *DABO) Observations() (valid, invalid int) {
	return d.nvalid, len(d.y) - d.nvalid
}

// row returns observation i's feature row as a view.
func (d *DABO) row(i int) []float64 {
	return d.x[i*d.dim : (i+1)*d.dim : (i+1)*d.dim]
}

// infeasible reports whether a stored log cost marks an infeasible row.
func infeasible(logCost float64) bool { return math.IsInf(logCost, 1) }

// checkDim fixes the observation width on the first observation and
// rejects any later row of another width. The first observation also
// sizes the store for capacity observations, unless the storage an
// earlier search left (see reset) already holds that many.
func (d *DABO) checkDim(features []float64) {
	if len(d.y) == 0 {
		d.dim = len(features)
		if n := d.capacity; n > 0 {
			if cap(d.x) < n*d.dim {
				d.x = make([]float64, 0, n*d.dim)
			}
			if cap(d.y) < n {
				d.y = make([]float64, 0, n)
			}
		}
	}
	if len(features) != d.dim {
		panic(fmt.Sprintf("core: daBO observation has %d features, earlier ones had %d", len(features), d.dim))
	}
}

// Observe records a valid design's feature vector and its (positive)
// cost. A non-finite cost is demoted to an invalid observation — one NaN
// ingested into the moment matrices would silently poison every later
// prediction — and a non-finite feature vector is dropped entirely.
func (d *DABO) Observe(features []float64, cost float64) {
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		d.ObserveInvalid(features)
		return
	}
	if !finiteVec(features) {
		return
	}
	logCost := math.Log(math.Max(cost, math.SmallestNonzeroFloat64))
	d.checkDim(features)
	d.decided = false
	d.x = append(d.x, features...)
	d.y = append(d.y, logCost)
	d.nvalid++
	if d.primal != nil {
		d.primal.Add(features, logCost)
	}
	d.staleness++
}

// ObserveInvalid records that a design point was infeasible. Non-finite
// feature vectors are dropped: there is no meaningful place to put the
// penalty mass, and one ±Inf row would corrupt the penalty moments.
func (d *DABO) ObserveInvalid(features []float64) {
	if !finiteVec(features) {
		return
	}
	d.checkDim(features)
	d.decided = false
	d.x = append(d.x, features...)
	d.y = append(d.y, math.Inf(1))
	if d.primal != nil {
		d.primal.AddPenalized(features)
	}
	d.staleness++
}

// finiteVec reports whether every component is a finite number.
func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ScoresCandidates reports whether the next SuggestIndex call will rank
// its candidates on the surrogate. It is false during warmup, once the
// optimizer has degraded, and when the surrogate cannot be fit; in those
// cases SuggestIndex returns rng.Intn(n) without reading a single
// feature. A uniform pick from a batch of random candidates is one
// random candidate, so a caller may instead draw just one and call
// drewAtRandom, as Spotlight's proposers do. Asking fits the surrogate
// if it is stale; the answer is cached until SuggestIndex or
// drewAtRandom consumes it or a new observation arrives.
func (d *DABO) ScoresCandidates() bool {
	if !d.decided {
		d.scores = d.nvalid >= d.warmup && !d.Degraded() && d.ensureFit() == nil
		d.decided = true
	}
	return d.scores
}

// drewAtRandom consumes ScoresCandidates' false answer, as a
// SuggestIndex call would, for a caller that drew its one suggestion at
// random instead.
func (d *DABO) drewAtRandom() { d.decided = false }

// SuggestIndex picks which of the candidate feature vectors to evaluate
// next: uniformly at random during warmup (or if the surrogate cannot be
// fit), otherwise the candidate minimizing the LCB acquisition.
func (d *DABO) SuggestIndex(candidates [][]float64) int {
	if n := len(candidates); cap(d.means) < n {
		d.means = make([]float64, n)
		d.stds = make([]float64, n)
	}
	return d.suggestIndex(candidates, d.means, d.stds)
}

// suggestIndex is SuggestIndex with caller-owned prediction buffers of
// at least len(candidates) values.
func (d *DABO) suggestIndex(candidates [][]float64, means, stds []float64) int {
	n := len(candidates)
	if n == 0 {
		d.decided = false
		return -1
	}
	scores := d.ScoresCandidates()
	d.decided = false
	if !scores {
		return d.rng.Intn(n)
	}
	means, stds = means[:n], stds[:n]
	if err := d.model.PredictBatch(candidates, means, stds); err != nil {
		return d.rng.Intn(n)
	}
	best := -1
	bestAcq := math.Inf(1)
	for i := range candidates {
		if acq := gp.LCB(means[i], stds[i], d.kappa); acq < bestAcq {
			bestAcq = acq
			best = i
		}
	}
	if best < 0 {
		return d.rng.Intn(n)
	}
	return best
}

// allInvalidPenalty is the log-cost assigned to infeasible observations
// while no valid observation exists yet. Any finite constant works — a
// constant target standardizes to zero, so the surrogate is flat and
// suggestions stay effectively random until the first valid point — but
// defining it explicitly keeps the all-invalid fit well-specified
// instead of inheriting an arbitrary offset from the zero value of the
// running worst-cost tracker.
const allInvalidPenalty = 0.0

// invalidPenalty returns the log-cost assigned to infeasible points:
// just above the worst valid observation, so the surrogate learns a
// cliff without distorting the valid region's scale, or the explicit
// all-invalid constant when nothing valid has been seen.
func (d *DABO) invalidPenalty() float64 {
	if d.nvalid == 0 {
		return allInvalidPenalty
	}
	worst := math.Inf(-1)
	for _, v := range d.y {
		if v > worst && !infeasible(v) {
			worst = v
		}
	}
	return worst + 2 // ≈ 7.4× the worst valid cost, in log space
}

// maxFitFailures is how many consecutive fit failures DABO tolerates
// before it stops refitting altogether. Fit failures are already rare
// (linalg escalates Cholesky jitter over eight decades internally), so
// repeated failure means the observation set itself is pathological;
// degrading to pure random suggestion keeps the search alive instead of
// paying a doomed O(d³)/O(n³) factorization on every suggestion — or
// panicking.
const maxFitFailures = 3

// Degraded reports whether repeated surrogate fit failures have
// permanently demoted this optimizer to random suggestion.
func (d *DABO) Degraded() bool { return d.fitAttempts >= maxFitFailures }

// ensureFit refits the surrogate if enough new observations accumulated.
// Each refit produces a fresh immutable model; linear kernels take the
// primal path (O(d³) from the incrementally maintained statistics),
// every other kernel rebuilds the dense GP. Failures are counted; after
// maxFitFailures consecutive failures the optimizer degrades to random
// suggestion for the rest of the run.
func (d *DABO) ensureFit() error {
	if d.Degraded() {
		return errDegraded
	}
	if d.model != nil && d.staleness < d.refitEvery {
		return nil
	}
	if len(d.y) == 0 {
		return gp.ErrNoData
	}
	traced := obs.Active(d.span, d.tracer)
	var fitStart time.Time
	if traced {
		fitStart = obs.Now()
	}
	err := d.refit()
	if traced {
		e := obs.Event{Type: obs.DABOFit, Scope: d.scope, Detail: "ok",
			DurMS: obs.MS(obs.Since(fitStart)),
			N:     len(d.y), Value: float64(len(d.y) - d.nvalid)}
		if err != nil {
			e.Detail = err.Error()
		}
		d.span.EmitTo(d.tracer, e)
	}
	if err != nil {
		d.fitAttempts++
		if traced && d.Degraded() {
			d.span.EmitTo(d.tracer, obs.Event{Type: obs.DABODegraded, Scope: d.scope})
		}
		return err
	}
	d.fitAttempts = 0
	d.staleness = 0
	return nil
}

var errDegraded = errors.New("core: surrogate degraded to random suggestion after repeated fit failures")

// refit rebuilds the surrogate from the current observation set. The
// primal path refits d.fit in place; a failed refit leaves it, and
// d.model, as they were.
func (d *DABO) refit() error {
	penalty := d.invalidPenalty()
	if d.primal != nil {
		if err := d.primal.FitInto(&d.fit, penalty); err != nil {
			return err
		}
		d.model = &d.fit
		return nil
	}
	// Valid rows first, then infeasible ones, each in arrival order.
	x := make([][]float64, 0, len(d.y))
	y := make([]float64, 0, len(d.y))
	for i, v := range d.y {
		if !infeasible(v) {
			x, y = append(x, d.row(i)), append(y, v)
		}
	}
	for i, v := range d.y {
		if infeasible(v) {
			x, y = append(x, d.row(i)), append(y, penalty)
		}
	}
	m := gp.New(d.kernel, daboNoise)
	if err := m.Fit(x, y); err != nil {
		return err
	}
	d.model = m
	return nil
}

// Surrogate returns the fitted surrogate (refitting if stale), for
// analyses such as permutation importance. It returns nil when no model
// can be fit yet. A linear-kernel surrogate is refit in place, so the
// returned model follows later observations' refits.
func (d *DABO) Surrogate() gp.Predictor {
	if err := d.ensureFit(); err != nil {
		return nil
	}
	return d.model
}

// ValidObservations returns copies of the valid observations' feature
// matrix, for feature-importance analysis.
func (d *DABO) ValidObservations() [][]float64 {
	out := make([][]float64, 0, d.nvalid)
	for i, v := range d.y {
		if !infeasible(v) {
			out = append(out, append([]float64(nil), d.row(i)...))
		}
	}
	return out
}
