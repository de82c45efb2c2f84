package engine

import (
	"strings"
	"testing"

	"spotlight/internal/obs"
)

// TestJobProgressSearch runs a small search job to completion and checks
// the progress snapshot: trial accounting against the spec's budget,
// throughput and cache figures equal to the Count-weighted totals of the
// job's own trace, a frozen elapsed time, and no ETA once terminal.
func TestJobProgressSearch(t *testing.T) {
	// Mirror spotlightd's wiring: with a server-wide tracer the shared
	// pipeline's backend adapter emits eval.done events, which span
	// threading routes into each job's own trace buffer.
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
	occurrences := map[obs.EventType]int64{}
	events, _, _ := j.Trace().Since(0)
	for _, e := range events {
		occurrences[e.Type] += e.Count()
	}
	if p.Evals != occurrences[obs.EvalDone] || p.CacheHits != occurrences[obs.CacheHit] || p.CacheMisses != occurrences[obs.CacheMiss] {
		t.Errorf("progress evals/hits/misses = %d/%d/%d, the trace holds %d/%d/%d",
			p.Evals, p.CacheHits, p.CacheMisses,
			occurrences[obs.EvalDone], occurrences[obs.CacheHit], occurrences[obs.CacheMiss])
	}

	// Elapsed froze at the terminal timestamp: two snapshots agree.
	if q := j.Progress(); q.ElapsedS != p.ElapsedS { //lint:allow floateq(frozen timestamps must yield the identical value, not a nearby one)
		t.Errorf("elapsed moved after terminal state: %v then %v", p.ElapsedS, q.ElapsedS)
	}
}

// TestJobTraceCarriesBalancedSpans proves every server job's trace is a
// well-formed span tree: a job root span plus trial spans, each closed
// exactly once, and the buffer's own count of span.start agrees.
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
	if n := j.Trace().Count(obs.SpanStart); int(n) != starts {
		t.Errorf("buffer counted %d span.start, trace holds %d", n, starts)
	}
}

// TestJobProgressPerJobIsolation: two identical jobs each account their
// own evaluation traffic in their own trace buffer — the second job,
// served largely from the shared memo cache, sees its hits, not the
// first's.
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
		t.Error("second identical job recorded no cache hits in its own trace")
	}
	if j1.Trace() == j2.Trace() {
		t.Error("jobs share a trace buffer; progress would blur across jobs")
	}
}

// TestJobCacheCountersStayExactWhenFolded: each layer search folds its
// cache events into one event per kind, and the job's counters still
// count every evaluation. On a fresh runner, one job's progress hits +
// misses equal the shared memo cache's, and its folded journal appends
// equal the journal's. The trace holds at most four cache events per
// sw.layer span (one per kind), however many evaluations each search
// makes.
func TestJobCacheCountersStayExactWhenFolded(t *testing.T) {
	run := func(swSamples int) (cacheEvents int) {
		r := NewRunner(RunnerConfig{Concurrency: 1, CacheDir: t.TempDir()})
		defer shutdownRunner(t, r)
		spec := tinySearchSpec(2)
		spec.SWSamples = swSamples
		j, err := r.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
		}
		pipe, err := r.Pipelines().Get(spec.Eval)
		if err != nil {
			t.Fatal(err)
		}
		p, c := j.Progress(), pipe.Cache().Snapshot()
		if p.CacheHits+p.CacheMisses != c.Hits+c.Misses || p.CacheMisses != c.Misses {
			t.Errorf("sw=%d: progress counts %d hits + %d misses, the cache %d + %d",
				swSamples, p.CacheHits, p.CacheMisses, c.Hits, c.Misses)
		}
		var appends int64
		layers := 0
		events, _, _ := j.Trace().Since(0)
		for _, e := range events {
			switch {
			case e.Type == obs.CachePersist && e.Detail == "append":
				appends += e.Count()
			case e.Type == obs.SpanStart && e.Detail == "sw.layer":
				layers++
			}
			if strings.HasPrefix(string(e.Type), "cache.") {
				cacheEvents++
			}
		}
		if puts := pipe.Disk().Store().Snapshot().Puts; appends != int64(puts) || appends == 0 {
			t.Errorf("sw=%d: trace folds %d journal appends, the journal took %d", swSamples, appends, puts)
		}
		if layers == 0 || cacheEvents > 4*layers {
			t.Errorf("sw=%d: %d cache events for %d sw.layer spans, want at most 4 per span", swSamples, cacheEvents, layers)
		}
		return cacheEvents
	}
	if small, large := run(4), run(16); small != large {
		t.Errorf("cache events grew with the evaluation budget: %d at 4 samples per layer, %d at 16", small, large)
	}
}

// TestLayerSearchTracedAsOneSpan: a layer search is recorded by its
// sw.layer span alone, with no lifecycle events restating its interval,
// and a job's trace stays proportional to its layer searches. Apart from
// dabo.fit, which grows with the software budget by design (one per
// refit), a job emits at most six events per sw.layer span at either
// budget.
func TestLayerSearchTracedAsOneSpan(t *testing.T) {
	removed := map[obs.EventType]bool{
		"sw.start": true, "sw.end": true, "pool.queue": true, "pool.start": true, "pool.done": true,
	}
	for _, swSamples := range []int{4, 16} {
		r := NewRunner(RunnerConfig{Concurrency: 1, CacheDir: t.TempDir()})
		spec := tinySearchSpec(2)
		spec.SWSamples = swSamples
		j, err := r.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("sw=%d: job state = %s (%s), want done", swSamples, st.State, st.Error)
		}
		shutdownRunner(t, r)
		layers, others := 0, 0
		events, _, _ := j.Trace().Since(0)
		for _, e := range events {
			if removed[e.Type] {
				t.Fatalf("sw=%d: trace holds a %s event; the sw.layer span is the only record of a layer search", swSamples, e.Type)
			}
			if e.Type == obs.SpanStart && e.Detail == "sw.layer" {
				layers++
			}
			if e.Type != obs.DABOFit {
				others++
			}
		}
		if layers == 0 || others > 6*layers {
			t.Errorf("sw=%d: %d events besides dabo.fit for %d sw.layer spans (%.2f per span), want at most 6 per span",
				swSamples, others, layers, float64(others)/float64(max(layers, 1)))
		}
	}
}
