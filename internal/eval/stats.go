package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Stats counts what its inner evaluator does: evaluations, outcomes by
// classification (ok / infeasible / other error), and cumulative
// latency. All counters are atomic, so the layer adds no lock to the
// hot path and is safe under any worker count. It also implements
// sim.EventSink, absorbing backend-specific path events (the hybrid
// backend's simulated/fallback decision) so backends keep no counters of
// their own.
//
// Placed directly above the backend (where FromSpec puts it), Stats
// measures true backend work — cache hits never reach it. Placed
// outermost it measures request traffic instead; both are valid, the
// spec order chooses.
type Stats struct {
	inner layer

	evals     atomic.Int64
	ok        atomic.Int64
	invalid   atomic.Int64
	errs      atomic.Int64
	latencyNS atomic.Int64

	eventMu sync.Mutex
	events  map[string]int64

	tr obs.Tracer // receives backend.path events; set by Chain
}

// WithStats returns the stats middleware.
func WithStats() Middleware {
	return func(inner layer) layer {
		return &Stats{inner: inner, events: make(map[string]int64)}
	}
}

// Name implements layer. Stats never changes results, so it is
// transparent in the name (and the checkpoint fingerprint).
func (st *Stats) Name() string { return st.inner.Name() }

// evaluate implements layer: one latency sample covering the whole
// call, per-item outcome counting, and len(ss) evals. Counters are
// tallied locally and published with one atomic add each. Latency is an
// observability counter: it is reported, never fed back into the
// search, and the wall-clock read goes through obs — the one package
// sanctioned to touch the clock. Stats emits no events on this path;
// the span is forwarded inward for the layers below to attribute.
func (st *Stats) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	start := obs.Now()
	st.inner.evaluate(sp, a, ss, l, costs, errs)
	st.latencyNS.Add(int64(obs.Since(start)))
	st.evals.Add(int64(len(ss)))
	var ok, invalid, failed int64
	for _, err := range errs {
		switch Outcome(err) {
		case OutcomeOK:
			ok++
		case OutcomeInvalid:
			invalid++
		default:
			failed++
		}
	}
	if ok > 0 {
		st.ok.Add(ok)
	}
	if invalid > 0 {
		st.invalid.Add(invalid)
	}
	if failed > 0 {
		st.errs.Add(failed)
	}
}

// Event implements sim.EventSink: named backend events are tallied into
// the snapshot's Events map and, when a tracer is attached, forwarded as
// backend.path trace events — counters and traces share this one entry
// point, so the two can never disagree about what the backend did.
func (st *Stats) Event(name string) {
	st.eventMu.Lock()
	st.events[name]++
	st.eventMu.Unlock()
	if obs.Enabled(st.tr) {
		st.tr.Emit(obs.Event{Type: obs.BackendPath, Detail: name})
	}
}

// StatsSnapshot is a point-in-time view of the stats counters.
type StatsSnapshot struct {
	Backend string // name of the evaluator the layer wraps
	Evals   int64  // calls that reached the inner evaluator
	OK      int64  // successful evaluations
	Invalid int64  // errors wrapping maestro.ErrInvalid (infeasible points)
	Errors  int64  // any other error (faults, timeouts)
	Latency time.Duration
	Events  map[string]int64 // named backend events (e.g. sim's simulated/fallback)
}

// AvgLatency returns the mean per-call latency, or 0 before any call.
func (s StatsSnapshot) AvgLatency() time.Duration {
	if s.Evals == 0 {
		return 0
	}
	return s.Latency / time.Duration(s.Evals)
}

// EventNames returns the snapshot's event names, sorted for stable
// reporting.
func (s StatsSnapshot) EventNames() []string {
	names := make([]string, 0, len(s.Events))
	for name := range s.Events {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// String renders the snapshot compactly, including any backend events in
// sorted name order.
func (s StatsSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: evals=%d ok=%d invalid=%d errors=%d avg=%s",
		s.Backend, s.Evals, s.OK, s.Invalid, s.Errors, s.AvgLatency())
	for _, name := range s.EventNames() {
		fmt.Fprintf(&b, " %s=%d", name, s.Events[name])
	}
	return b.String()
}

// Snapshot returns the current counters. The Events map is a copy.
func (st *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Backend: st.inner.Name(),
		Evals:   st.evals.Load(),
		OK:      st.ok.Load(),
		Invalid: st.invalid.Load(),
		Errors:  st.errs.Load(),
		Latency: time.Duration(st.latencyNS.Load()),
	}
	st.eventMu.Lock()
	if len(st.events) > 0 {
		snap.Events = make(map[string]int64, len(st.events))
		for k, v := range st.events {
			snap.Events[k] = v
		}
	}
	st.eventMu.Unlock()
	return snap
}
