package engine

import (
	"testing"

	"spotlight/internal/obs"
)

// TestJobProgressSearch runs a small search job to completion and checks
// the progress snapshot: trial accounting against the spec's budget,
// throughput and cache figures sourced from the job's own registry, a
// frozen elapsed time, and no ETA once terminal.
func TestJobProgressSearch(t *testing.T) {
	// Mirror spotlightd's wiring: with a server-wide tracer the shared
	// pipeline's backend adapter emits eval.done events, which span
	// threading routes into each job's own registry.
	r := NewRunner(RunnerConfig{Concurrency: 1, Tracer: obs.NewMetricsTracer(obs.NewRegistry())})
	defer shutdownRunner(t, r)
	j, err := r.Submit(tinySearchSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	p := j.Progress()
	if p.ID != j.ID() || p.Kind != KindSearch || p.State != StateDone {
		t.Fatalf("progress identity wrong: %+v", p)
	}
	if p.TrialsTotal != 2 || p.TrialsDone != 2 {
		t.Errorf("trials = %d/%d, want 2/2", p.TrialsDone, p.TrialsTotal)
	}
	if p.BestObjective == nil {
		t.Error("no best objective after a completed search")
	}
	if p.Evals <= 0 {
		t.Errorf("evals = %d, want > 0", p.Evals)
	}
	if p.CacheHits+p.CacheMisses <= 0 {
		t.Error("no cache traffic recorded")
	}
	if p.CacheHitRate < 0 || p.CacheHitRate > 1 {
		t.Errorf("cache hit rate = %v, want within [0, 1]", p.CacheHitRate)
	}
	if p.ElapsedS <= 0 {
		t.Errorf("elapsed = %v, want > 0", p.ElapsedS)
	}
	if p.EvalsPerSec <= 0 {
		t.Errorf("evals/sec = %v, want > 0", p.EvalsPerSec)
	}
	if p.ETAS != 0 {
		t.Errorf("ETA = %v on a terminal job, want 0", p.ETAS)
	}
	if p.Events != j.Trace().Len() || p.Events == 0 {
		t.Errorf("events = %d, want the trace buffer's %d (> 0)", p.Events, j.Trace().Len())
	}

	// Elapsed froze at the terminal timestamp: two snapshots agree.
	if q := j.Progress(); q.ElapsedS != p.ElapsedS { //lint:allow floateq(frozen timestamps must yield the identical value, not a nearby one)
		t.Errorf("elapsed moved after terminal state: %v then %v", p.ElapsedS, q.ElapsedS)
	}
}

// TestJobTraceCarriesBalancedSpans proves every server job's trace is a
// well-formed span tree: a job root span plus trial spans, each closed
// exactly once, and the per-kind duration histograms land in the job's
// own registry.
func TestJobTraceCarriesBalancedSpans(t *testing.T) {
	r := NewRunner(RunnerConfig{Concurrency: 1, Tracer: obs.NewMetricsTracer(obs.NewRegistry())})
	defer shutdownRunner(t, r)
	j, err := r.Submit(tinySearchSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	events, _, _ := j.Trace().Since(0)
	open := map[int64]string{}
	starts, ends := 0, 0
	for _, e := range events {
		switch e.Type {
		case obs.SpanStart:
			if _, dup := open[e.Span]; dup {
				t.Fatalf("span id %d started twice", e.Span)
			}
			open[e.Span] = e.Detail
			starts++
		case obs.SpanEnd:
			if _, ok := open[e.Span]; !ok {
				t.Fatalf("span.end for unknown or closed span %d", e.Span)
			}
			delete(open, e.Span)
			ends++
		}
	}
	if starts == 0 {
		t.Fatal("trace carries no spans")
	}
	if starts != ends || len(open) != 0 {
		t.Fatalf("unbalanced spans: %d starts, %d ends, %d left open", starts, ends, len(open))
	}
	if n := j.Metrics().Counter("trace.span.start").Value(); int(n) != starts {
		t.Errorf("registry counted %d span.start, trace holds %d", n, starts)
	}
	if h := j.Metrics().Histogram("dur.span.trial"); h.Count() != 2 {
		t.Errorf("dur.span.trial observed %d durations, want 2", h.Count())
	}
}

// TestJobProgressPerJobIsolation: two identical jobs each account their
// own evaluation traffic in their own registry — the second job, served
// largely from the shared memo cache, sees its hits, not the first's.
func TestJobProgressPerJobIsolation(t *testing.T) {
	r := NewRunner(RunnerConfig{Concurrency: 1, Tracer: obs.NewMetricsTracer(obs.NewRegistry())})
	defer shutdownRunner(t, r)
	spec := tinySearchSpec(2)
	j1, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	waitTerminal(t, j2)
	p1, p2 := j1.Progress(), j2.Progress()
	if p1.Events == 0 || p2.Events == 0 {
		t.Fatalf("jobs carry no events: %d, %d", p1.Events, p2.Events)
	}
	if p2.CacheHits == 0 {
		t.Error("second identical job recorded no cache hits in its own registry")
	}
	if j1.Metrics() == j2.Metrics() {
		t.Error("jobs share a metrics registry; progress would blur across jobs")
	}
}
