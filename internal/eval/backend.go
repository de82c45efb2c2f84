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

// Outcome classifications shared by the backend adapter's counters and
// trace events, so "what counts as invalid" is defined exactly once.
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
// innermost layer of every pipeline. A backend that fills caller-owned
// result slices (filler, e.g. maestro) receives every batch, of any
// size, in one EvaluateTo call; any other backend (sim, timeloop) gets
// per-item Evaluate calls.
//
// It is also the pipeline's one measurement point. Every backend call
// reads the clock once and classifies each outcome once, and that one
// reading feeds both the pipeline's Stats and, with a tracer, the
// trace: cache hits never reach it, so both count true backend work. A
// batch of one emits one eval.done carrying its duration; a larger
// batch emits one eval.done per item (outcome only: per-item durations
// do not exist inside a batch) and one eval.batch carrying the size and
// the whole-batch duration. Events are parented under the caller's span
// and follow its sink. Counting and tracing are observe-only and
// name-transparent.
type backendLayer struct {
	ev    core.Evaluator
	fill  filler     // ev's batch path, or nil
	tr    obs.Tracer // nil unless tracing is enabled
	stats Stats
}

// filler is a backend's batch path: results for ss[i] go to costs[i] and
// errs[i], bit-identical to Evaluate(a, ss[i], l).
type filler interface {
	EvaluateTo(a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error)
}

// lift builds the backend adapter. tr is kept only when it is enabled,
// so a disabled tracer takes the same path as none.
func lift(ev core.Evaluator, tr obs.Tracer) *backendLayer {
	b := &backendLayer{ev: ev}
	b.fill, _ = ev.(filler)
	b.stats.backend = ev.Name()
	if obs.Enabled(tr) {
		b.tr, b.stats.tr = tr, tr
	}
	return b
}

// Name implements layer with the backend's own name.
func (b *backendLayer) Name() string { return b.ev.Name() }

func (b *backendLayer) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	start := obs.Now()
	if b.fill != nil {
		b.fill.EvaluateTo(a, ss, l, costs, errs)
	} else {
		for i := range ss {
			costs[i], errs[i] = b.ev.Evaluate(a, ss[i], l)
		}
	}
	elapsed := obs.Since(start)
	scope := b.stats.backend
	perItem := b.tr != nil && len(ss) > 1
	var ok, invalid, failed int64
	var outcome string
	for _, err := range errs {
		switch outcome = Outcome(err); outcome {
		case OutcomeOK:
			ok++
		case OutcomeInvalid:
			invalid++
		default:
			failed++
		}
		if perItem {
			sp.EmitTo(b.tr, obs.Event{Type: obs.EvalDone, Scope: scope, Detail: outcome})
		}
	}
	b.stats.record(len(ss), elapsed, ok, invalid, failed)
	if b.tr == nil || len(ss) == 0 {
		return
	}
	if len(ss) == 1 {
		sp.EmitTo(b.tr, obs.Event{Type: obs.EvalDone, Scope: scope, DurMS: obs.MS(elapsed), Detail: outcome})
		return
	}
	sp.EmitTo(b.tr, obs.Event{Type: obs.EvalBatch, Scope: scope, N: len(ss), DurMS: obs.MS(elapsed)})
}
