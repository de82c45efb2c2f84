package eval

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/obs"
)

// Stats counts what a pipeline's backend actually did: evaluations,
// outcomes by classification (ok / infeasible / other error), and
// cumulative latency. Every pipeline has exactly one, owned by its
// backend adapter, so cache hits never reach it and the count is the
// same wherever middleware sits in the spec. All counters are atomic,
// so counting adds no lock to the hot path and is safe under any worker
// count. Stats also implements sim.EventSink, absorbing backend-specific
// path events (the hybrid backend's simulated/fallback decision) so
// backends keep no counters of their own.
type Stats struct {
	backend string

	evals     atomic.Int64
	ok        atomic.Int64
	invalid   atomic.Int64
	errs      atomic.Int64
	latencyNS atomic.Int64

	eventMu sync.Mutex
	events  map[string]int64

	tr obs.Tracer // receives backend.path events; nil unless tracing is enabled
}

// record publishes one backend call: n items evaluated in elapsed, with
// their per-outcome tallies. Latency is an observability counter: it is
// reported, never fed back into the search.
func (st *Stats) record(n int, elapsed time.Duration, ok, invalid, failed int64) {
	st.evals.Add(int64(n))
	st.latencyNS.Add(int64(elapsed))
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
	if st.events == nil {
		st.events = make(map[string]int64)
	}
	st.events[name]++
	st.eventMu.Unlock()
	if st.tr != nil {
		st.tr.Emit(obs.Event{Type: obs.BackendPath, Detail: name})
	}
}

// StatsSnapshot is a point-in-time view of the stats counters.
type StatsSnapshot struct {
	Backend string // name of the backend counted
	Evals   int64  // evaluations the backend performed
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

// Snapshot returns the current counters. The Events map is a copy.
func (st *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Backend: st.backend,
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
