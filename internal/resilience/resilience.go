// Package resilience hardens cost-model backends against the failure
// modes the paper's ecosystem exhibits in the wild: external evaluators
// that crash, hang, or return garbage (§II notes Hypermapper "often
// failed to terminate at all"). It provides two evaluator wrappers:
//
//   - Guard converts evaluator panics to errors, bounds each call with a
//     timeout, and retries errors classified transient with seeded
//     exponential backoff — so one flaky evaluation costs one sample, not
//     the whole search process.
//   - ChaosEvaluator deterministically injects those same faults
//     (transient errors, latency spikes, NaN/±Inf costs, panics) at
//     configurable rates, which is how the search runtime's fault paths
//     are tested.
//
// Error classification: a fault is *transient* (worth retrying) only if
// it wraps ErrTransient — or whatever the caller's IsTransient says.
// Everything else (including ErrPanic and ErrTimeout by default) is
// permanent for that sample: the driver records the sample as invalid
// and moves on.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Evaluator is the cost-model contract this package wraps. It is
// structurally identical to core.Evaluator (and to eval's backend
// contract), declared locally so resilience sits below both in the
// import graph: internal/eval composes Guard into pipelines without a
// cycle, and core never needs to know resilience exists.
type Evaluator interface {
	Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error)
	Name() string
}

// ErrPanic wraps a panic recovered from an evaluator call.
var ErrPanic = errors.New("resilience: evaluator panicked")

// ErrTransient marks an evaluator fault worth retrying. ChaosEvaluator's
// injected transient faults wrap it, and Guard's default classifier
// retries exactly the errors that wrap it.
var ErrTransient = errors.New("resilience: transient evaluator fault")

// ErrTimeout is returned when an evaluator call exceeds Guard.Timeout.
// It wraps context.DeadlineExceeded so callers can errors.Is either.
var ErrTimeout = fmt.Errorf("resilience: evaluator call timed out: %w", context.DeadlineExceeded)

// Guard wraps an Evaluator with panic recovery, a per-call timeout, and
// seeded retry-with-backoff for transient faults. The zero value of
// every knob is safe: no timeout, no retries, no backoff — only the
// panic-to-error conversion is unconditional. A Guard is safe for
// concurrent Evaluate calls iff the wrapped evaluator is; it keeps no
// mutable state (retry jitter is derived by hashing, not drawn from a
// shared RNG, so worker interleaving cannot perturb it).
type Guard struct {
	// Eval is the wrapped evaluator.
	Eval Evaluator
	// Timeout bounds one underlying Evaluate call; 0 disables. The
	// Evaluator interface has no cancellation hook, so a call that
	// exceeds the timeout is abandoned: its goroutine runs to completion
	// in the background (or forever, for a truly hung evaluator) while
	// the search moves on — the price of containing a hang without
	// cooperation from the evaluator.
	Timeout time.Duration
	// Retries is how many times a transient fault is retried before it
	// is reported; 0 means report the first fault.
	Retries int
	// Backoff is the base delay before the first retry, doubling per
	// attempt (capped at 64×) with seeded jitter; 0 retries immediately.
	Backoff time.Duration
	// Seed decorrelates the backoff jitter of concurrent searches.
	Seed int64
	// IsTransient classifies errors worth retrying; nil means
	// errors.Is(err, ErrTransient).
	IsTransient func(error) bool
	// Tracer, when set, receives one guard.retry event per retried fault
	// and one guard.timeout event per abandoned call. Tracing is
	// observe-only: it never changes what the guard returns.
	Tracer obs.Tracer
}

// Name implements Evaluator.
func (g *Guard) Name() string { return "guard(" + g.Eval.Name() + ")" }

// Evaluate implements Evaluator with the guard policy applied to Eval.
func (g *Guard) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	return g.Do(nil, a, s, l, func() (maestro.Cost, error) { return g.Eval.Evaluate(a, s, l) })
}

// Do applies the guard policy to call, one evaluation of (a, s, l):
// call is panic-recovered, raced against the timeout, and retried on
// transient faults with backoff jitter derived from (a, s, l). The
// guard's retry/timeout events are parented under sp and follow its
// sink; with a nil span they go to Tracer. Do never reads Eval, so a
// Guard used only through Do (the eval pipeline's guard layer) leaves
// it nil. A call abandoned on timeout is still running, so it must not
// write to memory the caller reuses.
func (g *Guard) Do(sp *obs.Span, a hw.Accel, s sched.Schedule, l workload.Layer, call func() (maestro.Cost, error)) (maestro.Cost, error) {
	transient := g.IsTransient
	if transient == nil {
		transient = func(err error) bool { return errors.Is(err, ErrTransient) }
	}
	for attempt := 0; ; attempt++ {
		cost, err := g.attempt(sp, call)
		if err == nil || attempt >= g.Retries || !transient(err) {
			return cost, err
		}
		if obs.Active(sp, g.Tracer) {
			sp.EmitTo(g.Tracer, obs.Event{Type: obs.GuardRetry, N: attempt + 1, Detail: err.Error()})
		}
		g.backoff(a, s, l, attempt)
	}
}

// attempt makes one guarded call: panic-recovered, and raced against the
// timeout when one is configured.
func (g *Guard) attempt(sp *obs.Span, call func() (maestro.Cost, error)) (maestro.Cost, error) {
	if g.Timeout <= 0 {
		return safeCall(call)
	}
	type outcome struct {
		cost maestro.Cost
		err  error
	}
	ch := make(chan outcome, 1) // buffered: a late finisher must not block forever
	go func() {
		c, err := safeCall(call)
		ch <- outcome{c, err}
	}()
	timer := time.NewTimer(g.Timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.cost, o.err
	case <-timer.C:
		if obs.Active(sp, g.Tracer) {
			sp.EmitTo(g.Tracer, obs.Event{Type: obs.GuardTimeout,
				DurMS: obs.MS(g.Timeout), Detail: g.Timeout.String()})
		}
		return maestro.Cost{}, fmt.Errorf("resilience: evaluation exceeded %v: %w", g.Timeout, ErrTimeout)
	}
}

// safeCall invokes call, converting a panic into an error wrapping
// ErrPanic.
func safeCall(call func() (maestro.Cost, error)) (cost maestro.Cost, err error) {
	defer func() {
		if r := recover(); r != nil {
			cost = maestro.Cost{}
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	return call()
}

// backoff sleeps before retry `attempt`+1: exponential in the attempt
// with jitter in [0.5, 1.0)× derived deterministically from (Seed, call
// inputs, attempt) — reproducible at any worker interleaving.
func (g *Guard) backoff(a hw.Accel, s sched.Schedule, l workload.Layer, attempt int) {
	if g.Backoff <= 0 {
		return
	}
	d := g.Backoff
	for i := 0; i < attempt && d < 64*g.Backoff; i++ {
		d *= 2
	}
	u := unit(mix(mix(uint64(g.Seed), hashPoint(a, s, l)), uint64(attempt)+1))
	time.Sleep(time.Duration(float64(d) * (0.5 + 0.5*u)))
}

// mix is a splitmix64-style finalizer folding s into state z, the same
// construction core uses for per-layer seed derivation.
func mix(z, s uint64) uint64 {
	z ^= s + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a hash to [0, 1).
func unit(z uint64) float64 { return float64(z>>11) / (1 << 53) }

// hashPoint folds one (accelerator, schedule, layer) triple into a
// 64-bit key, so fault and jitter decisions depend on what is being
// evaluated rather than on call order.
func hashPoint(a hw.Accel, s sched.Schedule, l workload.Layer) uint64 {
	z := uint64(0x5ca1ab1e)
	for _, v := range [...]int{a.PEs, a.Width, a.SIMDLanes, a.RFKB, a.L2KB, a.NoCBW} {
		z = mix(z, uint64(v))
	}
	for i := 0; i < workload.NumDims; i++ {
		z = mix(z, uint64(s.T2[i]))
		z = mix(z, uint64(s.T1[i]))
		z = mix(z, uint64(s.OuterOrder[i]))
		z = mix(z, uint64(s.InnerOrder[i]))
	}
	z = mix(z, uint64(s.OuterUnroll))
	z = mix(z, uint64(s.InnerUnroll))
	for _, c := range l.Name {
		z = mix(z, uint64(c))
	}
	for _, v := range l.Sizes() {
		z = mix(z, uint64(v))
	}
	return mix(z, uint64(l.Repeat))
}
