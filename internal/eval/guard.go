package eval

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// ErrPanic wraps a panic recovered from an evaluation behind a guard.
var ErrPanic = errors.New("eval: evaluator panicked")

// ErrTimeout is returned when an evaluation behind a guard exceeds its
// timeout. It wraps context.DeadlineExceeded so callers can errors.Is
// either.
var ErrTimeout = fmt.Errorf("eval: evaluator call timed out: %w", context.DeadlineExceeded)

// maxAbandoned caps the evaluations one guard layer has abandoned on
// timeout that are still running. A hung backend never returns, so
// without a cap every further timed-out call would strand another
// goroutine; at the cap the guard fails calls with ErrTimeout at once.
// Concurrent callers that pass the check together may each add one.
const maxAbandoned = 64

// WithGuard returns the fault-containment middleware. The paper's §II
// names how external cost models fail: they hang, crash, or return
// garbage. The guard turns a panic into an error wrapping ErrPanic and,
// when timeout is positive, a call running longer than timeout into an
// error wrapping ErrTimeout; core's non-finite checks handle garbage.
// The backends are deterministic, so the guard never retries. Call
// sites compose it by putting "guard" in their pipeline spec.
func WithGuard(timeout time.Duration) Middleware {
	return func(inner layer) layer { return &guardLayer{inner: inner, timeout: timeout} }
}

// guardLayer applies the guard policy to each item of a batch
// separately: every item is its own guarded call into the layer below,
// a batch of one, so a panic or timeout costs that one evaluation and
// no other.
type guardLayer struct {
	inner     layer
	timeout   time.Duration // 0 disables the timeout
	tr        obs.Tracer    // receives guard.timeout events; set by chain
	abandoned atomic.Int64  // calls given up on timeout that are still running
}

// Name implements layer. The guard can change what the search observes
// under faults, so — unlike the caches — it shows in the name and
// therefore in the checkpoint fingerprint.
func (g *guardLayer) Name() string { return "guard(" + g.inner.Name() + ")" }

func (g *guardLayer) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	for i := range ss {
		if g.timeout <= 0 {
			g.call(sp, a, ss[i:i+1], l, costs[i:i+1], errs[i:i+1])
			continue
		}
		costs[i], errs[i] = g.timed(sp, a, ss[i], l)
	}
}

// call evaluates a batch of one through the layer below, converting a
// panic into an error wrapping ErrPanic.
func (g *guardLayer) call(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	defer func() {
		if r := recover(); r != nil {
			costs[0], errs[0] = maestro.Cost{}, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	g.inner.evaluate(sp, a, ss, l, costs, errs)
}

// guardCall is one evaluation raced against the timeout. It owns its
// buffers: a call abandoned on timeout keeps running after timed
// returns and must not touch the caller's.
type guardCall struct {
	one     single
	done    chan struct{} // closed when the evaluation returns
	claimed atomic.Bool   // set by whichever of waiter and call gives up on the other first
}

// timed runs one guarded call on a goroutine of its own and waits at
// most the timeout for it. The layer below has no cancellation hook, so
// a call that overruns is abandoned: it runs to completion in the
// background (or forever, for a hung backend), counted in g.abandoned
// until it returns.
func (g *guardLayer) timed(sp *obs.Span, a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	if n := g.abandoned.Load(); n >= maxAbandoned {
		return maestro.Cost{}, g.timedOut(sp, fmt.Errorf("eval: %d abandoned evaluations still running: %w", n, ErrTimeout))
	}
	c := &guardCall{done: make(chan struct{})}
	c.one.ss[0] = s
	go func() {
		g.call(sp, a, c.one.ss[:], l, c.one.costs[:], c.one.errs[:])
		close(c.done)
		if c.claimed.Swap(true) { // the waiter gave up first
			g.abandoned.Add(-1)
		}
	}()
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case <-c.done:
	case <-timer.C:
		if !c.claimed.Swap(true) {
			g.abandoned.Add(1)
			return maestro.Cost{}, g.timedOut(sp, fmt.Errorf("eval: evaluation exceeded %v: %w", g.timeout, ErrTimeout))
		}
		<-c.done // the call finished as the timer fired
	}
	return c.one.costs[0], c.one.errs[0]
}

// timedOut reports a timeout to the trace and returns err.
func (g *guardLayer) timedOut(sp *obs.Span, err error) error {
	if obs.Active(sp, g.tr) {
		sp.EmitTo(g.tr, obs.Event{Type: obs.GuardTimeout, DurMS: obs.MS(g.timeout), Detail: g.timeout.String()})
	}
	return err
}
