package eval

import (
	"errors"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Outcome classifications shared by the backend adapter's trace events
// and the stats layer, so "what counts as invalid" is defined exactly
// once.
const (
	OutcomeOK      = "ok"      // evaluation succeeded
	OutcomeInvalid = "invalid" // error wrapping maestro.ErrInvalid: infeasible point
	OutcomeError   = "error"   // any other fault (timeout, panic, transient)
)

// Outcome classifies an evaluation result the way every counter and
// trace event reports it.
func Outcome(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, maestro.ErrInvalid):
		return OutcomeInvalid
	default:
		return OutcomeError
	}
}

// backendLayer lifts a backend into the layer contract; it is the
// innermost layer of every pipeline. A backend with a native batch path
// (core.BatchEvaluator, e.g. maestro) receives each multi-item batch in
// one EvaluateBatch call. A batch of one, and every batch for a backend
// without that path (sim, timeloop), goes through per-item Evaluate,
// which the batch contract makes bit-identical and which is the cheaper
// call for a single item.
//
// It is also the pipeline's trace point. With a tracer it times the
// backend call, so — like a stats layer directly above the backend — it
// records true backend work that cache hits never reach. A batch of one
// emits one eval.done carrying its duration; a larger batch emits one
// eval.done per item (outcome only: per-item durations do not exist
// inside a batch) and one eval.batch carrying the size and the
// whole-batch duration. Events are parented under the caller's span and
// follow its sink. Tracing is observe-only and name-transparent, and
// without a tracer it costs one branch.
type backendLayer struct {
	ev    core.Evaluator
	batch core.BatchEvaluator // ev's native batch path, or nil
	tr    obs.Tracer          // nil unless tracing is enabled
}

// lift builds the backend adapter. tr is kept only when it is enabled,
// so a disabled tracer takes the same one-branch path as none.
func lift(ev core.Evaluator, tr obs.Tracer) *backendLayer {
	b := &backendLayer{ev: ev}
	b.batch, _ = ev.(core.BatchEvaluator)
	if obs.Enabled(tr) {
		b.tr = tr
	}
	return b
}

// Name implements layer with the backend's own name.
func (b *backendLayer) Name() string { return b.ev.Name() }

func (b *backendLayer) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	if b.tr == nil {
		b.call(a, ss, l, costs, errs)
		return
	}
	start := obs.Now()
	b.call(a, ss, l, costs, errs)
	dur := obs.MS(obs.Since(start))
	scope := b.ev.Name()
	if len(ss) == 1 {
		sp.EmitTo(b.tr, obs.Event{Type: obs.EvalDone, Scope: scope, DurMS: dur, Detail: Outcome(errs[0])})
		return
	}
	for _, err := range errs {
		sp.EmitTo(b.tr, obs.Event{Type: obs.EvalDone, Scope: scope, Detail: Outcome(err)})
	}
	if len(ss) > 0 {
		sp.EmitTo(b.tr, obs.Event{Type: obs.EvalBatch, Scope: scope, N: len(ss), DurMS: dur})
	}
}

// call runs the backend on the batch, untimed.
func (b *backendLayer) call(a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	if b.batch == nil || len(ss) == 1 {
		for i := range ss {
			costs[i], errs[i] = b.ev.Evaluate(a, ss[i], l)
		}
		return
	}
	cs, es := b.batch.EvaluateBatch(a, ss, l)
	copy(costs, cs)
	copy(errs, es)
}
