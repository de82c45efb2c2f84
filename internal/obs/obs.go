// Package obs is the observability layer of the search runtime:
// structured trace events, a metrics registry, and the one place in the
// deterministic tree allowed to read the wall clock.
//
// The paper's headline claim is sample-efficiency, and the ROADMAP's
// north star is "fast as the hardware allows" — both need runs that can
// be *explained*: where wall-clock goes (surrogate fits vs. cost-model
// evaluations vs. pool scheduling), why daBO degraded to random, how the
// incumbent objective evolved per hardware sample. This package carries
// those signals out of the run without perturbing it:
//
//   - Tracer is the event sink contract. Instrumented sites in core,
//     eval and engine emit typed Events; JSONL writes them as
//     one JSON object per line, MetricsTracer folds them into a
//     Registry, Tee fans one stream into several sinks, and a nil (or
//     Nop) tracer drops everything at the cost of one branch.
//   - Registry is a concurrent metrics table (counters, gauges,
//     duration histograms) with an atomic hot path, exported in the
//     Prometheus text format 0.0.4 by Serve alongside the pprof
//     handlers.
//   - Now/Since are the sanctioned wall-clock reads for deterministic
//     packages: latency is measured here, never fed back into the
//     search.
//
// Hard invariant (enforced by tests and spotlightlint): tracing is
// observe-only. Search History, CSV artifacts, and checkpoints are
// bit-identical with tracing on or off, at any worker count. Events
// carry wall-clock timestamps and durations precisely because those are
// the values the determinism contract excludes.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// EventType names one kind of trace event. The set is closed: Validate
// rejects unknown types, which is what lets `tracestat -check` (run on
// real traces by TestEndToEndInvariants) check every JSONL line against
// the schema.
type EventType string

// The event taxonomy, grouped by emitting layer. See DESIGN.md §11 for
// the field conventions of each type.
const (
	// Run lifecycle (internal/core).
	RunStart       EventType = "run.start"       // Detail: strategy; N: hardware-sample budget
	RunEnd         EventType = "run.end"         // N: completed hardware samples
	HWPropose      EventType = "hw.propose"      // Sample; Detail: proposed accelerator
	Incumbent      EventType = "incumbent"       // Sample; Value: new best objective
	CheckpointSave EventType = "checkpoint.save" // Sample; DurMS
	CheckpointLoad EventType = "checkpoint.load" // N: samples restored

	// Surrogate (internal/core DABO).
	DABOFit      EventType = "dabo.fit"      // Scope: hw|sw; DurMS; N: observations; Value: invalid observations; Detail: ok|error
	DABODegraded EventType = "dabo.degraded" // Scope; N: consecutive fit failures

	// Evaluation pipeline (internal/eval).
	EvalDone     EventType = "eval.done"     // DurMS; Detail: ok|invalid|error
	EvalBatch    EventType = "eval.batch"    // N: batch size; DurMS: whole-batch duration
	BackendPath  EventType = "backend.path"  // Detail: backend event name (e.g. sim's simulated/fallback)
	CacheHit     EventType = "cache.hit"     // N: occurrences when folded by a span (see Count)
	CacheMiss    EventType = "cache.miss"    // N: occurrences when folded by a span
	CachePersist EventType = "cache.persist" // Detail: hit|append|recovered|readonly|invalidated|degraded; N: occurrences (hit/append folded by a span) or record count
	GuardTimeout EventType = "guard.timeout" // DurMS: configured bound; Detail: bound string

	// Causal spans (any layer, via the Span API). Span carries the span's
	// id; Parent the enclosing span (0 for a root). Every *other* event
	// type may carry Parent — the span it happened under — but never Span.
	SpanStart EventType = "span.start" // Span; Parent; Detail: span kind; Sample/Layer: optional labels
	SpanEnd   EventType = "span.end"   // Span; Parent; Detail: span kind; DurMS: span duration
)

// eventRule is the schema of one event type: which otherwise-optional
// fields must be present. Fields whose zero value is legitimate (a
// sub-millisecond duration) are never required.
type eventRule struct {
	sample, scope, detail, value, n bool
	span                            bool // the Span field is required (and only legal) here
}

// schema is the closed event taxonomy. Adding an event type means adding
// a row here; Validate (and with it `tracestat -check` and
// TestEndToEndInvariants) rejects anything else.
var schema = map[EventType]eventRule{
	RunStart:       {detail: true, n: true},
	RunEnd:         {},
	HWPropose:      {sample: true, detail: true},
	Incumbent:      {sample: true, value: true},
	CheckpointSave: {sample: true},
	CheckpointLoad: {},
	DABOFit:        {scope: true, detail: true},
	DABODegraded:   {scope: true},
	EvalDone:       {detail: true},
	EvalBatch:      {n: true},
	BackendPath:    {detail: true},
	CacheHit:       {},
	CacheMiss:      {},
	CachePersist:   {detail: true},
	GuardTimeout:   {detail: true},
	SpanStart:      {detail: true, span: true},
	SpanEnd:        {detail: true, span: true},
}

// EventTypes returns every known event type, sorted, for documentation
// and tools.
func EventTypes() []EventType {
	out := make([]EventType, 0, len(schema))
	for t := range schema { //lint:allow maporder(sorted before it is returned)
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Event is one structured trace record. Seq and TMS are stamped by the
// sink (per-sink monotone sequence and milliseconds since the sink was
// opened); every other field is set by the emitting site. Unused fields
// are omitted from the JSONL form.
type Event struct {
	Seq    int64     `json:"seq"`
	TMS    float64   `json:"t_ms"`
	Type   EventType `json:"type"`
	Sample int       `json:"sample,omitempty"` // 1-based hardware sample
	Layer  string    `json:"layer,omitempty"`  // model/layer identifier
	Scope  string    `json:"scope,omitempty"`  // e.g. "hw", "sw"
	Detail string    `json:"detail,omitempty"` // outcome class, accel string, error text
	DurMS  float64   `json:"dur_ms,omitempty"` // measured duration, milliseconds
	Value  float64   `json:"value,omitempty"`  // objective or auxiliary numeric
	N      int       `json:"n,omitempty"`      // count or index
	Span   int64     `json:"span,omitempty"`   // span id (span.start/span.end only)
	Parent int64     `json:"parent,omitempty"` // enclosing span id; 0 = unparented/root
}

// Count returns how many occurrences e stands for. A span folds its
// counter-only events (see Tally) into one event per kind with N = the
// count, so a folded event with N > 1 stands for N; every other event,
// and a counter-only event without N (one emitted per occurrence), for
// one. Every consumer that counts events weighs them by Count, which is
// what keeps folded and unfolded traces adding up to the same totals.
func (e Event) Count() int64 {
	if e.N > 1 && isTally(e) {
		return int64(e.N)
	}
	return 1
}

// Validate checks an event against the schema: the type must be known,
// the sink stamps must be present and sane, required fields must be set,
// and no numeric field may be non-finite or negative where a magnitude
// is expected.
func (e Event) Validate() error {
	rule, ok := schema[e.Type]
	if !ok {
		return fmt.Errorf("obs: unknown event type %q", e.Type)
	}
	if e.Seq <= 0 {
		return fmt.Errorf("obs: %s event has seq %d, want >= 1", e.Type, e.Seq)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"t_ms", e.TMS}, {"dur_ms", e.DurMS}, {"value", e.Value}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("obs: %s event has non-finite %s", e.Type, f.name)
		}
	}
	if e.TMS < 0 || e.DurMS < 0 {
		return fmt.Errorf("obs: %s event has negative timestamp or duration", e.Type)
	}
	if e.Span < 0 || e.Parent < 0 {
		return fmt.Errorf("obs: %s event has negative span or parent id", e.Type)
	}
	if e.N < 0 { // n is a count, an index or a multiplicity: never negative
		return fmt.Errorf("obs: %s event has negative n %d", e.Type, e.N)
	}
	if rule.span {
		if e.Span == 0 {
			return fmt.Errorf("obs: %s event missing span id", e.Type)
		}
	} else if e.Span != 0 {
		return fmt.Errorf("obs: %s event carries a span id (reserved for span.start/span.end)", e.Type)
	}
	switch {
	case rule.sample && e.Sample <= 0:
		return fmt.Errorf("obs: %s event missing sample", e.Type)
	case rule.scope && e.Scope == "":
		return fmt.Errorf("obs: %s event missing scope", e.Type)
	case rule.detail && e.Detail == "":
		return fmt.Errorf("obs: %s event missing detail", e.Type)
	case rule.value && e.Value == 0:
		return fmt.Errorf("obs: %s event missing value", e.Type)
	case rule.n && e.N <= 0:
		return fmt.Errorf("obs: %s event missing n", e.Type)
	}
	return nil
}

// ParseLine decodes one JSONL trace line strictly (unknown fields are an
// error, so schema drift is caught) and validates it.
func ParseLine(line []byte) (Event, error) {
	var e Event
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return e, fmt.Errorf("obs: parsing trace line: %w", err)
	}
	if err := e.Validate(); err != nil {
		return e, err
	}
	return e, nil
}

// Tracer is the event sink contract. Emit must be safe for concurrent
// use — the layer-search pool emits from many goroutines at once — and
// must never influence what the caller computes: tracing is observe-only
// by invariant. Enabled lets hot paths skip event construction (and the
// wall-clock reads that fill duration fields) entirely.
type Tracer interface {
	Emit(Event)
	Enabled() bool
}

// Enabled reports whether t records events, treating nil as disabled.
// Instrumented sites guard with this so an untraced run pays one branch
// and nothing else.
func Enabled(t Tracer) bool { return t != nil && t.Enabled() }

// nop drops everything; Enabled is false so emit sites skip work.
type nop struct{}

func (nop) Emit(Event)    {}
func (nop) Enabled() bool { return false }

// Nop is the no-op tracer: always safe to pass, never records.
var Nop Tracer = nop{}

// tee fans events out to several sinks. Each sink stamps its own
// sequence numbers and timestamps.
type tee struct{ sinks []Tracer }

func (t *tee) Enabled() bool { return true }

func (t *tee) Emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Tee combines tracers into one. Nil and disabled tracers are dropped;
// zero live sinks yields nil (disabled), one is returned unwrapped.
func Tee(ts ...Tracer) Tracer {
	live := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if Enabled(t) {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &tee{sinks: live}
}

// Now returns the current wall-clock instant. This helper — not
// time.Now — is what deterministic packages call to measure durations
// for trace events and latency counters: spotlightlint's nowallclock
// analyzer confines raw wall-clock reads to this package, so timing data
// has exactly one way to exist and it is visibly observe-only.
func Now() time.Time { return time.Now() }

// Since returns the elapsed wall-clock time since a Now instant.
func Since(t time.Time) time.Duration { return time.Since(t) }

// MS converts a duration to the milliseconds carried by Event.DurMS.
func MS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
