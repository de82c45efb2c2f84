package obs

import (
	"sync/atomic"
	"time"
)

// spanIDs allocates process-unique span ids. Ids are causal handles, not
// ordinals: uniqueness is all that matters, and a process-wide atomic
// keeps allocation allocation-free and safe from any goroutine.
var spanIDs atomic.Int64

// Span is one node of the causal trace tree: a timed region of work
// (job, trial, hw.propose, sw.layer, ...) under which other events
// happen. StartSpan emits span.start immediately and End emits span.end
// with the measured duration; events emitted through the span (Emit,
// EmitTo) carry Parent = the span's id, which is how tracestat
// reconstructs the tree and attributes wall-clock.
//
// Spans are observe-only like every other trace construct: a nil *Span
// is valid everywhere (every method no-ops), and StartSpan returns nil
// when the tracer is disabled, so an untraced run pays one branch and
// allocates nothing. A span must be closed exactly once on every return
// path (defer sp.End() is the idiom); spotlightlint's spanbalance
// analyzer enforces that, and End is idempotent as a second line of
// defense. A span is owned by the goroutine that started it — End and
// Emit are not synchronized against each other — but distinct spans may
// live on distinct goroutines freely, which is how the layer pool runs
// one sw.layer span per worker. CountTo is the exception: it may be
// called from any goroutine, before or after End.
type Span struct {
	tr     Tracer
	id     int64
	parent int64
	kind   string
	start  time.Time
	ended  bool
	tally  [numTallies]atomic.Int64 // counter-only events folded until End
}

// Tally names one counter-only event kind: an event whose every field
// but its type (and detail) is empty, so that n of them carry no more
// information than one event with N = n. The eval layers emit these once
// per evaluation; under a span they are counted instead (CountTo) and
// End emits one event per kind. The set is closed: a new kind needs a
// row in tallyEvents.
type Tally uint8

const (
	TallyCacheHit      Tally = iota // cache.hit
	TallyCacheMiss                  // cache.miss
	TallyPersistHit                 // cache.persist, detail "hit"
	TallyPersistAppend              // cache.persist, detail "append"
	numTallies
)

// tallyEvents is the event each Tally kind stands for.
var tallyEvents = [numTallies]Event{
	TallyCacheHit:      {Type: CacheHit},
	TallyCacheMiss:     {Type: CacheMiss},
	TallyPersistHit:    {Type: CachePersist, Detail: "hit"},
	TallyPersistAppend: {Type: CachePersist, Detail: "append"},
}

// isTally reports whether e is one of the counter-only kinds.
func isTally(e Event) bool {
	for _, t := range tallyEvents {
		if e.Type == t.Type && e.Detail == t.Detail {
			return true
		}
	}
	return false
}

// StartSpan opens a root span of the given kind on tr, emitting
// span.start. It returns nil — a valid, inert span — when tr is
// disabled.
func StartSpan(tr Tracer, kind string) *Span {
	if !Enabled(tr) {
		return nil
	}
	return newSpan(tr, 0, kind, "", 0)
}

func newSpan(tr Tracer, parent int64, kind, label string, sample int) *Span {
	s := &Span{tr: tr, id: spanIDs.Add(1), parent: parent, kind: kind, start: Now()}
	tr.Emit(Event{Type: SpanStart, Span: s.id, Parent: parent, Detail: kind, Layer: label, Sample: sample})
	return s
}

// Child opens a sub-span of s. Nil-safe: a nil receiver yields nil.
func (s *Span) Child(kind string) *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.tr, s.id, kind, "", 0)
}

// ChildSample opens a sub-span annotated with a 1-based sample index
// (the trial spans of a search run). Nil-safe.
func (s *Span) ChildSample(kind string, sample int) *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.tr, s.id, kind, "", sample)
}

// ChildLabel opens a sub-span annotated with a layer/step label (the
// sw.layer and exp.step spans). Nil-safe.
func (s *Span) ChildLabel(kind, label string) *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.tr, s.id, kind, label, 0)
}

// ChildOrRoot returns parent.Child(kind) when parent is non-nil, and
// otherwise a root span on tr (nil when tr is disabled). It is the
// entry-point idiom for code that is sometimes called under a span and
// sometimes stand-alone (core.RunContext under engine vs. direct use).
func ChildOrRoot(parent *Span, tr Tracer, kind string) *Span {
	if parent != nil {
		return parent.Child(kind)
	}
	return StartSpan(tr, kind)
}

// End closes the span: it emits one event per non-zero tally kind,
// parented to the span with N = the count, then span.end with the
// measured duration. Nil-safe and idempotent: only the first End on a
// non-nil span emits. Tallies counted after End are never read, so an
// evaluation a guard abandoned under this span changes nothing once the
// span has closed.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	for k := range s.tally {
		if n := s.tally[k].Load(); n > 0 {
			e := tallyEvents[k]
			e.Parent, e.N = s.id, int(n)
			s.tr.Emit(e)
		}
	}
	s.tr.Emit(Event{Type: SpanEnd, Span: s.id, Parent: s.parent, Detail: s.kind, DurMS: MS(Since(s.start))})
}

// ID returns the span's id, or 0 for nil.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Tracer returns the sink the span emits to, or nil for nil. A non-nil
// span's tracer is always enabled.
func (s *Span) Tracer() Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Emit records e under the span: Parent is stamped with the span's id
// and the event goes to the span's tracer. Nil-safe no-op, so callers
// that hold a span need no Enabled guard — but note the event struct
// (and any Now() calls filling it) is built before the nil check, so
// hot paths should still guard with `if sp != nil`.
func (s *Span) Emit(e Event) {
	if s == nil {
		return
	}
	e.Parent = s.id
	s.tr.Emit(e)
}

// EmitTo records e under the span when one is present, and otherwise
// falls back to tr (unparented, only if enabled). It is the emission
// idiom for middleware that holds a construction-time tracer but may be
// called with a per-call span: events follow the span's sink — in
// spotlightd that is the per-job tee — rather than the shared one.
func (s *Span) EmitTo(tr Tracer, e Event) {
	if s != nil {
		e.Parent = s.id
		s.tr.Emit(e)
		return
	}
	if Enabled(tr) {
		tr.Emit(e)
	}
}

// CountTo records one occurrence of the counter-only kind k: under the
// span when one is present, as one more unit of its tally (an atomic
// add, no allocation, safe from any goroutine), and otherwise as its own
// event on tr (unparented, only if enabled). It is EmitTo for events
// that carry nothing but their kind.
func (s *Span) CountTo(tr Tracer, k Tally) {
	if s != nil {
		s.tally[k].Add(1)
		return
	}
	if Enabled(tr) {
		tr.Emit(tallyEvents[k])
	}
}

// Active reports whether an emission through sp.EmitTo(tr, ...) would
// record anything: the one-branch guard for sites with an optional span
// and a fallback tracer.
func Active(sp *Span, tr Tracer) bool { return sp != nil || Enabled(tr) }
