package eval

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// batchFromTriples groups the triples by (accel, layer) — the shape
// EvaluateBatch requires — preserving order within each group.
type batchGroup struct {
	a  triple
	ss []sched.Schedule
}

func groupTriples(trs []triple) []batchGroup {
	var out []batchGroup
	for _, tr := range trs {
		matched := false
		for i := range out {
			if out[i].a.a == tr.a && out[i].a.l == tr.l {
				out[i].ss = append(out[i].ss, tr.s)
				matched = true
				break
			}
		}
		if !matched {
			out = append(out, batchGroup{a: tr, ss: []sched.Schedule{tr.s}})
		}
	}
	return out
}

// countingEval is maestro with a count of the items that reach it. The
// backend adapter calls only EvaluateTo on it, for every batch size, so
// that is the one method it must shadow: the embedded model's would
// otherwise be promoted and bypass the count.
type countingEval struct {
	maestro.Model
	items atomic.Int64
}

func (c *countingEval) EvaluateTo(a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	c.items.Add(int64(len(ss)))
	c.Model.EvaluateTo(a, ss, l, costs, errs)
}

// result is one evaluation outcome, as the bare backend returns it.
type result struct {
	cost maestro.Cost
	err  error
}

// sameResult compares one pipeline result with the bare backend's:
// cost bits, error text and ErrInvalid classification.
func sameResult(cost maestro.Cost, err error, want result) error {
	switch {
	case (err == nil) != (want.err == nil):
		return fmt.Errorf("err=%v, want %v", err, want.err)
	case want.err != nil:
		if err.Error() != want.err.Error() ||
			errors.Is(err, maestro.ErrInvalid) != errors.Is(want.err, maestro.ErrInvalid) {
			return fmt.Errorf("error mismatch: %q vs %q", err, want.err)
		}
	case !costBitsEqual(cost, want.cost):
		return fmt.Errorf("cost not bit-identical:\n%+v\n%+v", cost, want.cost)
	}
	return nil
}

// TestPipelineBatchMatchesBareBackend is the identity property across
// every entry point: for each pipeline shape, traced and untraced, 8
// racing workers drive all four public Pipeline methods (Evaluate,
// EvaluateSpan, EvaluateBatch, EvaluateBatchSpan) over the same design
// points, and every cost and error must be bit-identical to the bare
// backend evaluated sequentially. The duplicated triples from
// randomTriples land as in-batch duplicate keys and cross-worker races
// on the same entries; the specs cover the stats token in both
// positions, the persistent cache under a guard with a timeout (the
// guard's abandoned-call path), a backend without a native batch path,
// and a counting backend chained by hand. Whatever the shape, the
// pipeline's Stats count exactly the evaluations that reached the
// backend.
func TestPipelineBatchMatchesBareBackend(t *testing.T) {
	const workers, methods = 8, 4
	journal := filepath.Join(t.TempDir(), "maestro.journal")
	cases := []struct {
		name, spec, backend string
		points              int // random design points; the simulator is slow, so sim gets fewer
		guardTimeout        time.Duration
		counted             bool // Chain(countingEval, WithCache()) instead of the spec
	}{
		{spec: "maestro,cache,stats", backend: "maestro", points: 48},
		{spec: "maestro,stats,cache", backend: "maestro", points: 48},
		{name: "maestro,diskcache,cache,guard", spec: "maestro,diskcache(path=" + journal + "),cache,guard",
			backend: "maestro", points: 48, guardTimeout: time.Minute},
		{spec: "sim,cache", backend: "sim", points: 12},
		{name: "counting,cache", backend: "maestro", points: 48, counted: true},
	}
	for _, c := range cases {
		if c.name == "" {
			c.name = c.spec
		}
		groups := groupTriples(randomTriples(77, c.points))
		var items int
		for _, g := range groups {
			items += len(g.ss)
		}
		bare, err := Open(c.backend)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]result, len(groups))
		for g, grp := range groups {
			for _, s := range grp.ss {
				cost, err := bare.Evaluate(grp.a.a, s, grp.a.l)
				want[g] = append(want[g], result{cost, err})
			}
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", c.name, traced), func(t *testing.T) {
				rec := &recordingTracer{}
				opts := SpecOptions{GuardTimeout: c.guardTimeout}
				if traced {
					opts.Tracer = rec
				}
				var counter *countingEval
				var p *Pipeline
				if c.counted {
					counter = &countingEval{}
					p = chain(opts.Tracer, counter, WithCache())
				} else {
					p = MustFromSpec(c.spec, opts)
				}
				defer p.Close()
				var sp *obs.Span
				if traced {
					sp = obs.StartSpan(rec, "test")
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for m := 0; m < methods; m++ {
							method := (w + m) % methods
							for g, grp := range groups {
								a, l := grp.a.a, grp.a.l
								label := fmt.Sprintf("worker %d method %d group %d", w, method, g)
								switch method {
								case 0, 1:
									for i, s := range grp.ss {
										var cost maestro.Cost
										var err error
										if method == 0 {
											cost, err = p.Evaluate(a, s, l)
										} else {
											cost, err = p.EvaluateSpan(sp, a, s, l)
										}
										if err := sameResult(cost, err, want[g][i]); err != nil {
											t.Errorf("%s item %d: %v", label, i, err)
											return
										}
									}
								default:
									var costs []maestro.Cost
									var errs []error
									if method == 2 {
										costs, errs = p.EvaluateBatch(a, grp.ss, l)
									} else {
										costs, errs = p.EvaluateBatchSpan(sp, a, grp.ss, l)
									}
									if len(costs) != len(grp.ss) || len(errs) != len(grp.ss) {
										t.Errorf("%s: %d costs / %d errs for %d schedules", label, len(costs), len(errs), len(grp.ss))
										return
									}
									for i := range grp.ss {
										if err := sameResult(costs[i], errs[i], want[g][i]); err != nil {
											t.Errorf("%s item %d: %v", label, i, err)
											return
										}
									}
								}
							}
						}
					}(w)
				}
				wg.Wait()
				sp.End()
				if t.Failed() {
					return
				}

				requests := int64(workers * methods * items)
				snap := p.Cache().Snapshot()
				if got := snap.Hits + snap.Misses; got != requests {
					t.Fatalf("hits(%d)+misses(%d) != %d requests", snap.Hits, snap.Misses, requests)
				}
				if snap.Hits == 0 {
					t.Fatal("no cache hits despite duplicate keys across 8 workers")
				}
				// The backend saw every memo miss the disk did not serve.
				backendEvals := snap.Misses
				if d := p.Disk(); d != nil {
					backendEvals -= d.Store().Snapshot().Hits
				}
				if counter != nil {
					backendEvals = counter.items.Load()
				}
				st := p.Stats().Snapshot()
				if st.Evals != backendEvals {
					t.Fatalf("stats evals %d, want %d backend evaluations", st.Evals, backendEvals)
				}
				if st.OK+st.Invalid+st.Errors != st.Evals {
					t.Fatalf("stats ok(%d)+invalid(%d)+errors(%d) != evals(%d)", st.OK, st.Invalid, st.Errors, st.Evals)
				}
				// Traced, every evaluation that reached the backend emitted
				// one schema-valid eval.done; untraced, nothing did.
				var done int64
				for _, e := range rec.events {
					if e.Type != obs.EvalDone {
						continue
					}
					done++
					e.Seq = 1 // the recording tracer stamps no seq
					if err := e.Validate(); err != nil {
						t.Fatalf("eval.done fails schema: %v", err)
					}
				}
				if !traced {
					backendEvals = 0
				}
				if done != backendEvals {
					t.Fatalf("%d eval.done events, want %d", done, backendEvals)
				}
			})
		}
	}
}

// TestBatchTraceEvents: the trace layer emits one eval.done per batched
// item plus one eval.batch carrying the batch size, and every event
// passes the obs schema (what `tracestat -check` enforces).
func TestBatchTraceEvents(t *testing.T) {
	rec := &recordingTracer{}
	p := MustFromSpec("maestro", SpecOptions{Tracer: rec})
	grp := groupTriples(randomTriples(9, 6))[0]

	p.EvaluateBatch(grp.a.a, grp.ss, grp.a.l)
	var done, batch int
	for _, e := range rec.events {
		e.Seq, e.TMS = 1, 0 // sink stamps, absent from a bare recorder
		if err := e.Validate(); err != nil {
			t.Fatalf("batched trace event fails schema: %v", err)
		}
		switch e.Type {
		case obs.EvalDone:
			done++
		case obs.EvalBatch:
			batch++
			if e.N != len(grp.ss) {
				t.Fatalf("eval.batch N=%d, want %d", e.N, len(grp.ss))
			}
		}
	}
	if done != len(grp.ss) || batch != 1 {
		t.Fatalf("got %d eval.done and %d eval.batch events, want %d and 1", done, batch, len(grp.ss))
	}
}

// TestBatchFallbackForNonBatchBackend: a backend without EvaluateTo
// (the scriptable fake) still serves batches through the per-item
// fallback loop, preserving order and per-item outcomes.
func TestBatchFallbackForNonBatchBackend(t *testing.T) {
	var n int
	fake := &fakeEval{fn: func() (maestro.Cost, error) {
		n++
		if n%2 == 0 {
			return maestro.Cost{}, fmt.Errorf("point %d: %w", n, maestro.ErrInvalid)
		}
		return maestro.Cost{DelayCycles: float64(n)}, nil
	}}
	p := Chain(fake)
	trs := randomTriples(13, 4)
	ss := make([]sched.Schedule, len(trs))
	for i, tr := range trs {
		ss[i] = tr.s
	}
	costs, errs := p.EvaluateBatch(trs[0].a, ss, trs[0].l)
	if fake.calls.Load() != int64(len(ss)) {
		t.Fatalf("fallback reached backend %d times, want %d", fake.calls.Load(), len(ss))
	}
	for i := range ss {
		odd := i%2 == 0 // n starts at 1
		if odd && (errs[i] != nil || costs[i].DelayCycles != float64(i+1)) {
			t.Fatalf("item %d: cost=%+v err=%v", i, costs[i], errs[i])
		}
		if !odd && !errors.Is(errs[i], maestro.ErrInvalid) {
			t.Fatalf("item %d: want ErrInvalid, got %v", i, errs[i])
		}
	}
	wantOK, wantInvalid := int64((len(ss)+1)/2), int64(len(ss)/2)
	if st := p.Stats().Snapshot(); st.Evals != int64(len(ss)) || st.OK != wantOK || st.Invalid != wantInvalid {
		t.Fatalf("stats snapshot %+v, want evals=%d ok=%d invalid=%d", st, len(ss), wantOK, wantInvalid)
	}
}

// TestBatchCacheTransientNotMemoized: a transient (non-ErrInvalid)
// fault inside a batch is returned but not memoized, exactly like the
// sequential path — a later batch re-evaluates instead of reusing it.
func TestBatchCacheTransientNotMemoized(t *testing.T) {
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{}, errors.New("transient") }}
	pipe := Chain(fake, WithCache())
	c := pipe.Cache()
	tr := randomTriples(21, 1)[0]
	ss := []sched.Schedule{tr.s}

	if _, errs := pipe.EvaluateBatch(tr.a, ss, tr.l); errs[0] == nil {
		t.Fatal("fault swallowed")
	}
	if _, errs := pipe.EvaluateBatch(tr.a, ss, tr.l); errs[0] == nil {
		t.Fatal("fault swallowed on retry")
	}
	if got := fake.calls.Load(); got != 2 {
		t.Fatalf("backend called %d times, want 2 (faults must not be memoized)", got)
	}
	if snap := c.Snapshot(); snap.Entries != 0 || snap.Hits != 0 {
		t.Fatalf("snapshot %+v, want no entries and no hits", snap)
	}
}

// TestBatchCacheDuplicateKeys: copies of one key inside a single batch
// are each evaluated in the batch's one inner call and counted as
// misses; they all agree with the bare backend and leave one entry,
// which answers every copy of the next batch.
func TestBatchCacheDuplicateKeys(t *testing.T) {
	a, s, l := validTriple(t, maestro.New())
	var want result
	want.cost, want.err = maestro.New().Evaluate(a, s, l)
	counter := &countingEval{}
	pipe := Chain(counter, WithCache())
	ss := []sched.Schedule{s, s, s, s}

	for round := 0; round < 2; round++ {
		costs, errs := pipe.EvaluateBatch(a, ss, l)
		for i := range ss {
			if err := sameResult(costs[i], errs[i], want); err != nil {
				t.Fatalf("round %d, item %d: %v", round, i, err)
			}
		}
	}
	if got := counter.items.Load(); got != int64(len(ss)) {
		t.Fatalf("backend evaluated %d items, want %d (the first batch's copies)", got, len(ss))
	}
	wantSnap := CacheSnapshot{Hits: int64(len(ss)), Misses: int64(len(ss)), Entries: 1}
	if snap := pipe.Cache().Snapshot(); snap != wantSnap {
		t.Fatalf("snapshot %+v, want %+v", snap, wantSnap)
	}
}

// TestBatchCachePanicLeavesNoEntry: a backend panic mid-batch propagates
// and leaves no entry for any of the batch's items, so the next batch
// evaluates them all afresh.
func TestBatchCachePanicLeavesNoEntry(t *testing.T) {
	first := true
	fake := &fakeEval{fn: func() (maestro.Cost, error) {
		if first {
			first = false
			panic("backend crash")
		}
		return maestro.Cost{DelayCycles: 2}, nil
	}}
	pipe := Chain(fake, WithCache())
	trs := randomTriples(23, 3)
	ss := make([]sched.Schedule, len(trs))
	for i, tr := range trs {
		ss[i] = tr.s
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate through the batch cache")
			}
		}()
		pipe.EvaluateBatch(trs[0].a, ss, trs[0].l)
	}()
	if snap := pipe.Cache().Snapshot(); snap.Entries != 0 {
		t.Fatalf("snapshot %+v after a panic, want no entries", snap)
	}

	costs, errs := pipe.EvaluateBatch(trs[0].a, ss, trs[0].l)
	for i := range ss {
		if errs[i] != nil || costs[i].DelayCycles != 2 {
			t.Fatalf("post-panic item %d: cost=%+v err=%v", i, costs[i], errs[i])
		}
	}
	if got := fake.calls.Load(); got != 1+int64(len(ss)) {
		t.Fatalf("backend called %d times, want %d (the panic, then every item)", got, 1+len(ss))
	}
}

// TestBatchEmpty: zero-length batches are legal no-ops at every layer.
func TestBatchEmpty(t *testing.T) {
	p := MustFromSpec("maestro,cache,stats", SpecOptions{})
	tr := randomTriples(24, 1)[0]
	costs, errs := p.EvaluateBatch(tr.a, nil, tr.l)
	if len(costs) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d/%d results", len(costs), len(errs))
	}
	if st := p.Stats().Snapshot(); st.Evals != 0 {
		t.Fatalf("empty batch counted %d evals", st.Evals)
	}
}
