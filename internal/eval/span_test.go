package eval

import (
	"errors"
	"sync"
	"testing"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// spanSink is an enabled tracer retaining every event, for asserting on
// where the middleware routes its emissions.
type spanSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *spanSink) Enabled() bool { return true }

func (c *spanSink) Emit(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *spanSink) byType(t obs.EventType) []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []obs.Event
	for _, e := range c.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// TestSpanThreadingRoutesMiddlewareEvents proves the per-job telemetry
// mechanism end to end at the pipeline layer: with a span threaded
// through EvaluateSpan, the backend adapter and the cache parent their
// events under the span and follow the SPAN's sink — not the pipeline's
// construction-time tracer — which is what keeps per-job registries
// isolated even though spotlightd's eval pipeline is shared. Without a
// span, events fall back to the construction tracer, unparented.
func TestSpanThreadingRoutesMiddlewareEvents(t *testing.T) {
	fallback, jobSink := &spanSink{}, &spanSink{}
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{DelayCycles: 1}, nil }}
	pipe := chain(fallback, fake, WithCache())
	tr := randomTriples(7, 2)

	// Under a span: every event routes to the span's sink, parented.
	sp := obs.StartSpan(jobSink, "trial")
	if _, err := core.EvaluateSpan(pipe, sp, tr[0].a, tr[0].s, tr[0].l); err != nil {
		t.Fatal(err)
	}
	if _, err := core.EvaluateSpan(pipe, sp, tr[0].a, tr[0].s, tr[0].l); err != nil { // memo hit
		t.Fatal(err)
	}
	sp.End()
	if n := len(fallback.events); n != 0 {
		t.Fatalf("span-threaded events leaked to the construction tracer: %+v", fallback.events)
	}
	done := jobSink.byType(obs.EvalDone)
	if len(done) != 1 {
		t.Fatalf("span sink saw %d eval.done, want 1 (the memo hit never reaches the backend)", len(done))
	}
	if done[0].Parent != sp.ID() {
		t.Errorf("eval.done parent = %d, want span id %d", done[0].Parent, sp.ID())
	}
	if done[0].Scope == "" || done[0].DurMS < 0 {
		t.Errorf("eval.done scope/duration not stamped: %+v", done[0])
	}
	hits := jobSink.byType(obs.CacheHit)
	if len(hits) != 1 || hits[0].Parent != sp.ID() {
		t.Fatalf("cache.hit not routed under the span: %+v", hits)
	}

	// Without a span: the construction tracer gets the events, unparented.
	if _, err := pipe.Evaluate(tr[2].a, tr[2].s, tr[2].l); err != nil {
		t.Fatal(err)
	}
	done = fallback.byType(obs.EvalDone)
	if len(done) != 1 || done[0].Parent != 0 {
		t.Fatalf("fallback path wrong: %+v", fallback.events)
	}

	// The fan-out is observe-only: the backend ran once per distinct
	// point however the events were routed.
	if got := fake.calls.Load(); got != 2 {
		t.Errorf("backend ran %d times, want 2", got)
	}
}

// notifyLayer closes done when its one call into the layer below
// returns.
type notifyLayer struct {
	inner layer
	done  chan struct{}
}

func (n *notifyLayer) Name() string { return n.inner.Name() }

func (n *notifyLayer) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	n.inner.evaluate(sp, a, ss, l, costs, errs)
	close(n.done)
}

// TestSpanEndDropsTalliesOfAbandonedCalls: a guard abandons a call on
// timeout, the span ends, and only then does the backend return. The
// cache and journal layers below the guard finish the call on the
// abandoned goroutine and tally their miss and append under the ended
// span; nothing may follow span.end. Run under -race, this is also the
// check that tallying from the guard's goroutine races nothing.
func TestSpanEndDropsTalliesOfAbandonedCalls(t *testing.T) {
	inner := &faultEval{release: make(chan struct{})}
	returned := make(chan struct{})
	notify := func(in layer) layer { return &notifyLayer{inner: in, done: returned} }
	p := Chain(inner,
		WithDisk(DiskOptions{Dir: t.TempDir(), Backend: "fault", Fingerprint: "fault/v1"}),
		WithCache(), notify, WithGuard(time.Millisecond))
	defer p.Close()
	sink := &spanSink{}
	sp := obs.StartSpan(sink, "sw.layer")
	a, s, l := testPoint()
	if _, err := p.EvaluateSpan(sp, a, s, l); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	sp.End()
	close(inner.release)
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the abandoned call never returned")
	}
	if c := p.Cache().Snapshot(); c.Misses != 1 {
		t.Fatalf("cache recorded %d misses, want the abandoned call's 1", c.Misses)
	}
	if puts := p.Disk().Store().Snapshot().Puts; puts != 1 {
		t.Fatalf("journal took %d appends, want the abandoned call's 1", puts)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var types []obs.EventType
	for _, e := range sink.events {
		types = append(types, e.Type)
	}
	want := []obs.EventType{obs.SpanStart, obs.GuardTimeout, obs.SpanEnd}
	if len(types) != len(want) {
		t.Fatalf("span sink saw %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("span sink saw %v, want %v", types, want)
		}
	}
}
