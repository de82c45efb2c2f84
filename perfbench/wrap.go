package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/eval"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// The traced run times the strategy's proposers and the evaluator through
// decorators that only observe. core picks code paths by type assertion
// (RoundProposer selects batched rounds, SpanCarrier receives spans,
// BatchEvaluator/SpanEvaluator/SpanBatchEvaluator select evaluation entry
// points, Validate is checked before a run), so each decorator has
// exactly the optional methods of the value it wraps: a decorator that
// added RoundSize to Spotlight's software proposer would send the traced
// run down the batched path and change what it measures.

// tracedStrategy decorates a core.Strategy so every proposer it builds is
// timed into rec.
type tracedStrategy struct {
	inner core.Strategy
	rec   *recorder

	mu      sync.Mutex
	pending []*swWrap // proposers without SetSpan, flushed by finish
}

func (s *tracedStrategy) Name() string                    { return s.inner.Name() }
func (s *tracedStrategy) SWBudget(cfg core.RunConfig) int { return s.inner.SWBudget(cfg) }

func (s *tracedStrategy) NewHW(cfg core.RunConfig, rng *rand.Rand) core.HWProposer {
	w := &hwWrap{inner: s.inner.NewHW(cfg, rng), rec: s.rec}
	if _, ok := w.inner.(core.SpanCarrier); ok {
		return struct {
			*hwWrap
			spanPart
		}{w, spanPart{w.inner.(core.SpanCarrier).SetSpan}}
	}
	return w
}

func (s *tracedStrategy) NewSW(cfg core.RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) core.SWProposer {
	w := &swWrap{inner: s.inner.NewSW(cfg, rng, a, l), rec: s.rec}
	_, round := w.inner.(core.RoundProposer)
	_, carrier := w.inner.(core.SpanCarrier)
	rp := roundPart{w}
	sp := spanPart{w.setSpan}
	switch {
	case round && carrier:
		return struct {
			*swWrap
			roundPart
			spanPart
		}{w, rp, sp}
	case carrier:
		return struct {
			*swWrap
			spanPart
		}{w, sp}
	}
	s.mu.Lock()
	s.pending = append(s.pending, w)
	s.mu.Unlock()
	if round {
		return struct {
			*swWrap
			roundPart
		}{w, rp}
	}
	return w
}

// finish folds in the proposers that never received a span (and so were
// never flushed by SetSpan(nil)). Call it after the run returns.
func (s *tracedStrategy) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.pending {
		s.rec.flushLayer(nil, &w.acc)
	}
	s.pending = nil
}

// spanPart exposes SetSpan; roundPart exposes RoundSize. They are
// embedded only when the wrapped proposer has the method.
type spanPart struct{ set func(*obs.Span) }

func (p spanPart) SetSpan(sp *obs.Span) { p.set(sp) }

type roundPart struct{ w *swWrap }

func (p roundPart) RoundSize() int { return p.w.inner.(core.RoundProposer).RoundSize() }

type hwWrap struct {
	inner core.HWProposer
	rec   *recorder
}

func (h *hwWrap) Suggest() hw.Accel {
	t := time.Now()
	a := h.inner.Suggest()
	h.rec.hwSuggestNS.Add(int64(time.Since(t)))
	return a
}

func (h *hwWrap) Observe(a hw.Accel, objective float64, err error) {
	t := time.Now()
	h.inner.Observe(a, objective, err)
	h.rec.hwObserveNS.Add(int64(time.Since(t)))
}

// swWrap times one layer search's proposer. core drives each proposer
// from one goroutine at a time, so acc needs no locking.
type swWrap struct {
	inner core.SWProposer
	rec   *recorder
	span  *obs.Span
	acc   layerAcc
}

func (w *swWrap) Suggest() sched.Schedule {
	t := time.Now()
	s := w.inner.Suggest()
	end := time.Now()
	if w.acc.first.IsZero() {
		w.acc.first = t
	}
	w.acc.suggestN++
	w.acc.suggestNS += int64(end.Sub(t))
	return s
}

func (w *swWrap) Observe(s sched.Schedule, objective float64, err error) {
	t := time.Now()
	w.inner.Observe(s, objective, err)
	end := time.Now()
	w.acc.observeN++
	w.acc.observeNS += int64(end.Sub(t))
	w.acc.last = end
}

// setSpan forwards the driver's span and brackets the layer search: a
// span registers the accumulator so evaluations under it are charged to
// this layer, and SetSpan(nil) flushes the layer's sums under the span.
func (w *swWrap) setSpan(sp *obs.Span) {
	w.inner.(core.SpanCarrier).SetSpan(sp)
	if sp != nil {
		w.span = sp
		w.acc = layerAcc{spanAt: time.Now()}
		w.rec.layers.Store(sp, &w.acc)
		return
	}
	if w.span == nil {
		return
	}
	w.rec.layers.Delete(w.span)
	w.rec.flushLayer(w.span, &w.acc)
	w.span, w.acc = nil, layerAcc{}
}

// evalWrap times every call into the evaluator. Its optional methods
// live in the parts below; wrapEvaluator embeds exactly the parts whose
// interfaces the wrapped evaluator implements.
type evalWrap struct {
	inner core.Evaluator
	rec   *recorder
}

func (e *evalWrap) Name() string { return e.inner.Name() }

func (e *evalWrap) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	t := time.Now()
	c, err := e.inner.Evaluate(a, s, l)
	e.rec.chargeEval(nil, 1, time.Since(t))
	return c, err
}

type batchPart struct{ e *evalWrap }

func (p batchPart) EvaluateBatch(a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error) {
	t := time.Now()
	cs, errs := core.EvaluateBatch(p.e.inner, a, ss, l)
	p.e.rec.chargeEval(nil, len(ss), time.Since(t))
	return cs, errs
}

type spanEvalPart struct{ e *evalWrap }

func (p spanEvalPart) EvaluateSpan(sp *obs.Span, a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	t := time.Now()
	c, err := core.EvaluateSpan(p.e.inner, sp, a, s, l)
	p.e.rec.chargeEval(sp, 1, time.Since(t))
	return c, err
}

type spanBatchPart struct{ e *evalWrap }

func (p spanBatchPart) EvaluateBatchSpan(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error) {
	t := time.Now()
	cs, errs := core.EvaluateBatchSpan(p.e.inner, sp, a, ss, l)
	p.e.rec.chargeEval(sp, len(ss), time.Since(t))
	return cs, errs
}

type validatePart struct{ e *evalWrap }

func (p validatePart) Validate() error {
	return p.e.inner.(interface{ Validate() error }).Validate()
}

type fingerprintPart struct{ e *evalWrap }

func (p fingerprintPart) ModelFingerprint() string {
	return p.e.inner.(eval.Versioned).ModelFingerprint()
}

// Capability bits of an evaluator, indexing evalShapes.
const (
	capBatch = 1 << iota
	capSpan
	capSpanBatch
	capValidate
	capFingerprint
)

// evaluatorCaps reports which optional evaluator interfaces ev implements.
func evaluatorCaps(ev core.Evaluator) int {
	caps := 0
	if _, ok := ev.(core.BatchEvaluator); ok {
		caps |= capBatch
	}
	if _, ok := ev.(core.SpanEvaluator); ok {
		caps |= capSpan
	}
	if _, ok := ev.(core.SpanBatchEvaluator); ok {
		caps |= capSpanBatch
	}
	if _, ok := ev.(interface{ Validate() error }); ok {
		caps |= capValidate
	}
	if _, ok := ev.(eval.Versioned); ok {
		caps |= capFingerprint
	}
	return caps
}

// Decorator types, one per capability set the repository's evaluators
// have: plain backends and test doubles, backends with a model
// fingerprint (sim, timeloop), maestro (batch + fingerprint), middleware
// layers (batch + span + span-batch), and pipelines (those plus Validate).
type (
	evalFP struct {
		*evalWrap
		fingerprintPart
	}
	evalBatchFP struct {
		*evalWrap
		batchPart
		fingerprintPart
	}
	evalLayer struct {
		*evalWrap
		batchPart
		spanEvalPart
		spanBatchPart
	}
	evalPipeline struct {
		*evalWrap
		batchPart
		spanEvalPart
		spanBatchPart
		validatePart
	}
)

// wrapEvaluator returns a timing decorator of ev with ev's exact set of
// optional interfaces. It refuses a capability set it has no decorator
// type for rather than return one that would change core's code path.
func wrapEvaluator(ev core.Evaluator, rec *recorder) (core.Evaluator, error) {
	e := &evalWrap{inner: ev, rec: rec}
	const layer = capBatch | capSpan | capSpanBatch
	switch caps := evaluatorCaps(ev); caps {
	case 0:
		return e, nil
	case capFingerprint:
		return evalFP{e, fingerprintPart{e}}, nil
	case capBatch | capFingerprint:
		return evalBatchFP{e, batchPart{e}, fingerprintPart{e}}, nil
	case layer:
		return evalLayer{e, batchPart{e}, spanEvalPart{e}, spanBatchPart{e}}, nil
	case layer | capValidate:
		return evalPipeline{e, batchPart{e}, spanEvalPart{e}, spanBatchPart{e}, validatePart{e}}, nil
	default:
		return nil, fmt.Errorf("perfbench: no decorator for %T (capabilities %05b)", ev, caps)
	}
}
