package obs

import (
	"sync"
	"testing"
)

// collector is an enabled tracer that retains every event, for
// asserting on the span wire protocol.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) Enabled() bool { return true }

func (c *collector) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// TestSpanNilSafety proves the nil-span discipline: a disabled tracer
// yields a nil span, and every method on a nil span is an inert no-op,
// so untraced call sites pay one branch and zero allocations.
func TestSpanNilSafety(t *testing.T) {
	for _, tr := range []Tracer{nil, Nop} {
		if sp := StartSpan(tr, "job"); sp != nil {
			t.Fatalf("StartSpan(%T) = %v, want nil", tr, sp)
		}
	}
	var sp *Span
	if c := sp.Child("trial"); c != nil {
		t.Errorf("nil.Child = %v, want nil", c)
	}
	if c := sp.ChildSample("trial", 1); c != nil {
		t.Errorf("nil.ChildSample = %v, want nil", c)
	}
	if c := sp.ChildLabel("sw.layer", "mm1"); c != nil {
		t.Errorf("nil.ChildLabel = %v, want nil", c)
	}
	if id := sp.ID(); id != 0 {
		t.Errorf("nil.ID = %d, want 0", id)
	}
	if tr := sp.Tracer(); tr != nil {
		t.Errorf("nil.Tracer = %v, want nil", tr)
	}
	sp.Emit(Event{Type: CacheHit}) // must not panic
	sp.End()                       // must not panic
	if Active(nil, nil) {
		t.Error("Active(nil, nil) = true")
	}
	if Active(nil, Nop) {
		t.Error("Active(nil, Nop) = true")
	}
	if !Active(nil, &collector{}) {
		t.Error("Active(nil, enabled) = false")
	}
}

// TestSpanTree proves the wire protocol of a small span tree: fresh ids,
// parent linkage on span.start/span.end and on annotated events, labels
// on ChildSample/ChildLabel, a measured duration on span.end, idempotent
// End, and every emitted event passing schema validation.
func TestSpanTree(t *testing.T) {
	c := &collector{}
	job := StartSpan(c, "job")
	if job == nil {
		t.Fatal("StartSpan on enabled tracer returned nil")
	}
	if !Active(job, nil) {
		t.Error("Active(span, nil) = false")
	}
	trial := job.ChildSample("trial", 3)
	trial.Emit(Event{Type: CacheHit})
	layer := trial.ChildLabel("sw.layer", "bert/mm1")
	layer.End()
	layer.End() // idempotent: must not emit a second span.end
	trial.End()
	job.End()

	want := []struct {
		typ    EventType
		kind   string
		sample int
		layer  string
	}{
		{SpanStart, "job", 0, ""},
		{SpanStart, "trial", 3, ""},
		{CacheHit, "", 0, ""},
		{SpanStart, "sw.layer", 0, "bert/mm1"},
		{SpanEnd, "sw.layer", 0, ""},
		{SpanEnd, "trial", 0, ""},
		{SpanEnd, "job", 0, ""},
	}
	if len(c.events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(c.events), len(want), c.events)
	}
	for i, e := range c.events {
		if e.Type != want[i].typ {
			t.Fatalf("event %d: type %s, want %s", i, e.Type, want[i].typ)
		}
		if e.Type == SpanStart || e.Type == SpanEnd {
			if e.Detail != want[i].kind {
				t.Errorf("event %d: kind %q, want %q", i, e.Detail, want[i].kind)
			}
		}
		if e.Sample != want[i].sample || e.Layer != want[i].layer {
			t.Errorf("event %d: sample/layer = %d/%q, want %d/%q",
				i, e.Sample, e.Layer, want[i].sample, want[i].layer)
		}
		e.Seq, e.TMS = int64(i)+1, float64(i) // validation needs sink-side stamps
		if err := e.Validate(); err != nil {
			t.Errorf("event %d fails validation: %v", i, err)
		}
	}

	jobID, trialID, layerID := c.events[0].Span, c.events[1].Span, c.events[3].Span
	if jobID == trialID || trialID == layerID || jobID == layerID {
		t.Fatalf("span ids not distinct: %d %d %d", jobID, trialID, layerID)
	}
	if got := c.events[1].Parent; got != jobID {
		t.Errorf("trial parent = %d, want job id %d", got, jobID)
	}
	if got := c.events[2].Parent; got != trialID {
		t.Errorf("annotated event parent = %d, want trial id %d", got, trialID)
	}
	if got := c.events[3].Parent; got != trialID {
		t.Errorf("layer parent = %d, want trial id %d", got, trialID)
	}
	for _, i := range []int{4, 5, 6} {
		start := map[int64]Event{jobID: c.events[0], trialID: c.events[1], layerID: c.events[3]}[c.events[i].Span]
		if c.events[i].Parent != start.Parent {
			t.Errorf("span.end %d parent = %d, want %d", i, c.events[i].Parent, start.Parent)
		}
		if c.events[i].DurMS < 0 {
			t.Errorf("span.end %d has negative duration %v", i, c.events[i].DurMS)
		}
	}
}

// TestChildOrRoot proves the entry-point idiom: under a span it is
// Child, stand-alone it is StartSpan, and with neither it stays nil.
func TestChildOrRoot(t *testing.T) {
	if sp := ChildOrRoot(nil, nil, "run"); sp != nil {
		t.Fatalf("ChildOrRoot(nil, nil) = %v, want nil", sp)
	}
	c := &collector{}
	root := ChildOrRoot(nil, c, "run")
	if root == nil || c.events[0].Parent != 0 {
		t.Fatalf("ChildOrRoot(nil, enabled) did not open a root span: %+v", c.events)
	}
	child := ChildOrRoot(root, nil, "run")
	if child == nil || c.events[1].Parent != root.ID() {
		t.Fatalf("ChildOrRoot(parent, nil) did not open a child span: %+v", c.events)
	}
	child.End()
	root.End()
}

// TestEmitTo proves the middleware emission idiom: with a span the event
// is parented and follows the span's sink; without one it falls back to
// the construction-time tracer unparented; with neither it is dropped.
func TestEmitTo(t *testing.T) {
	spanSink, fallback := &collector{}, &collector{}
	sp := StartSpan(spanSink, "job")
	sp.EmitTo(fallback, Event{Type: CacheHit})
	if len(fallback.events) != 0 {
		t.Errorf("EmitTo with span leaked to fallback: %+v", fallback.events)
	}
	if got := len(spanSink.events); got != 2 { // span.start + cache.hit
		t.Fatalf("span sink has %d events, want 2", got)
	}
	if e := spanSink.events[1]; e.Parent != sp.ID() {
		t.Errorf("EmitTo parent = %d, want %d", e.Parent, sp.ID())
	}
	sp.End()

	var none *Span
	none.EmitTo(fallback, Event{Type: CacheMiss})
	if len(fallback.events) != 1 || fallback.events[0].Parent != 0 {
		t.Fatalf("EmitTo fallback path wrong: %+v", fallback.events)
	}
	none.EmitTo(Nop, Event{Type: CacheMiss}) // disabled fallback: dropped, no panic
	none.EmitTo(nil, Event{Type: CacheMiss}) // nil fallback: dropped, no panic
}

// TestCountToFoldsIntoOneEventPerKind proves the tally protocol: under a
// span, CountTo from any goroutine emits nothing until End, which emits
// one event per non-zero kind (parented, N = the count) just before
// span.end; tallies after End are dropped. Without a span, each CountTo
// is its own unparented event on the fallback tracer.
func TestCountToFoldsIntoOneEventPerKind(t *testing.T) {
	c, fallback := &collector{}, &collector{}
	sp := StartSpan(c, "sw.layer")
	counts := map[Tally]int{TallyCacheHit: 5, TallyCacheMiss: 3, TallyPersistAppend: 3}
	var wg sync.WaitGroup
	for k, n := range counts {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp.CountTo(fallback, k)
			}()
		}
	}
	wg.Wait()
	if len(c.events) != 1 || len(fallback.events) != 0 {
		t.Fatalf("CountTo emitted before End: span sink %+v, fallback %+v", c.events, fallback.events)
	}
	sp.End()
	sp.CountTo(fallback, TallyCacheHit) // after End: dropped
	sp.End()

	want := []Event{
		{Type: CacheHit, N: 5},
		{Type: CacheMiss, N: 3},
		{Type: CachePersist, Detail: "append", N: 3},
	}
	if len(c.events) != len(want)+2 {
		t.Fatalf("got %d events, want span.start, %d tallies, span.end: %+v", len(c.events), len(want), c.events)
	}
	for i, w := range want {
		e := c.events[1+i]
		if e.Type != w.Type || e.Detail != w.Detail || e.N != w.N || e.Parent != sp.ID() {
			t.Errorf("tally event %d = %+v, want %+v parented to %d", i, e, w, sp.ID())
		}
		if e.Count() != int64(w.N) {
			t.Errorf("tally event %d counts %d, want %d", i, e.Count(), w.N)
		}
		e.Seq = 1
		if err := e.Validate(); err != nil {
			t.Errorf("tally event %d fails validation: %v", i, err)
		}
	}
	if last := c.events[len(c.events)-1]; last.Type != SpanEnd {
		t.Errorf("last event = %s, want span.end", last.Type)
	}
	if len(fallback.events) != 0 {
		t.Errorf("span tallies leaked to the fallback: %+v", fallback.events)
	}

	var none *Span
	none.CountTo(fallback, TallyPersistHit)
	none.CountTo(Nop, TallyCacheHit) // disabled fallback: dropped
	none.CountTo(nil, TallyCacheHit) // nil fallback: dropped
	if len(fallback.events) != 1 || fallback.events[0] != (Event{Type: CachePersist, Detail: "hit"}) {
		t.Fatalf("CountTo without a span = %+v, want one unparented cache.persist hit", fallback.events)
	}
}

// TestEventCount pins what one event stands for: N occurrences for a
// folded counter-only event, one for anything else, including events
// whose N is a record count or an index.
func TestEventCount(t *testing.T) {
	cases := []struct {
		ev   Event
		want int64
	}{
		{Event{Type: CacheHit}, 1},
		{Event{Type: CacheHit, N: 1}, 1},
		{Event{Type: CacheMiss, N: 7}, 7},
		{Event{Type: CachePersist, Detail: "hit", N: 4}, 4},
		{Event{Type: CachePersist, Detail: "append", N: 2}, 2},
		{Event{Type: CachePersist, Detail: "recovered", N: 9}, 1},
		{Event{Type: CachePersist, Detail: "readonly", N: 9}, 1},
		{Event{Type: EvalBatch, N: 64}, 1},
	}
	for _, c := range cases {
		if got := c.ev.Count(); got != c.want {
			t.Errorf("%+v.Count() = %d, want %d", c.ev, got, c.want)
		}
	}
}
