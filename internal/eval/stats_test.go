package eval

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spotlight/internal/maestro"
	"spotlight/internal/obs"
)

// TestStatsEventConcurrent hammers Stats.Event from racing workers: the
// tallies must come out exact, and the race detector vouches for the
// lock discipline.
func TestStatsEventConcurrent(t *testing.T) {
	st := Chain(maestro.New()).Stats()
	const workers, per = 8, 500
	names := []string{"simulated", "fallback", "refit"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.Event(names[(w+i)%len(names)])
			}
		}(w)
	}
	wg.Wait()
	snap := st.Snapshot()
	var total int64
	for _, n := range snap.Events {
		total += n
	}
	if total != workers*per {
		t.Fatalf("event total = %d, want %d (events: %v)", total, workers*per, snap.Events)
	}
}

// TestOutcomeClassification pins the shared classifier that stats
// counters and trace events both report through.
func TestOutcomeClassification(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, OutcomeOK},
		{fmt.Errorf("wrapped: %w", maestro.ErrInvalid), OutcomeInvalid},
		{errors.New("boom"), OutcomeError},
		{ErrTimeout, OutcomeError},
	}
	for _, c := range cases {
		if got := Outcome(c.err); got != c.want {
			t.Errorf("Outcome(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestTraceTransparency is the property test for the backend adapter's
// tracing: a traced pipeline is name-transparent (so checkpoint fingerprints
// are unchanged) and returns bit-identical costs and errors to a bare
// backend over a population of random design points — while the tracer
// sees exactly one schema-valid eval.done event per call.
func TestTraceTransparency(t *testing.T) {
	rec := &recordingTracer{}
	traced, err := FromSpec("maestro,stats", SpecOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := traced.Name(); got != "maestro" {
		t.Fatalf("traced pipeline Name() = %q, want maestro (trace must be name-transparent)", got)
	}
	bare := maestro.New()
	trs := randomTriples(23, 60)
	for i, tr := range trs {
		wantCost, wantErr := bare.Evaluate(tr.a, tr.s, tr.l)
		gotCost, gotErr := traced.Evaluate(tr.a, tr.s, tr.l)
		if !costBitsEqual(gotCost, wantCost) {
			t.Fatalf("triple %d: traced cost %+v != bare cost %+v", i, gotCost, wantCost)
		}
		if (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("triple %d: traced err %v != bare err %v", i, gotErr, wantErr)
		}
	}
	if len(rec.events) != len(trs) {
		t.Fatalf("tracer saw %d events, want %d (one eval.done per call)", len(rec.events), len(trs))
	}
	for i, e := range rec.events {
		if e.Type != obs.EvalDone {
			t.Fatalf("event %d has type %q, want %q", i, e.Type, obs.EvalDone)
		}
		e.Seq = int64(i) + 1 // the recording tracer stamps no seq
		if err := e.Validate(); err != nil {
			t.Fatalf("event %d fails schema: %v", i, err)
		}
	}
	snap := traced.Stats().Snapshot()
	if snap.Evals != int64(len(trs)) {
		t.Fatalf("stats saw %d evals, want %d", snap.Evals, len(trs))
	}
	// The shared classifier keeps the two observation paths consistent.
	var okEvents, invalidEvents int64
	for _, e := range rec.events {
		switch e.Detail {
		case OutcomeOK:
			okEvents++
		case OutcomeInvalid:
			invalidEvents++
		}
	}
	if okEvents != snap.OK || invalidEvents != snap.Invalid {
		t.Fatalf("trace outcomes ok=%d invalid=%d disagree with stats ok=%d invalid=%d",
			okEvents, invalidEvents, snap.OK, snap.Invalid)
	}
}

// recordingTracer captures events in memory for assertions.
type recordingTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recordingTracer) Enabled() bool { return true }

func (r *recordingTracer) Emit(e obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// TestFromSpecWiresTracerEverywhere: one SpecOptions.Tracer reaches the
// cache layer and the backend adapter, so cache.hit / cache.miss /
// backend events all land in the same stream.
func TestFromSpecWiresTracerEverywhere(t *testing.T) {
	rec := &recordingTracer{}
	p, err := FromSpec("maestro,cache,stats", SpecOptions{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	trs := randomTriples(31, 8)
	tr := trs[0]
	p.Evaluate(tr.a, tr.s, tr.l)
	p.Evaluate(tr.a, tr.s, tr.l) // second call is a hit
	byType := map[obs.EventType]int{}
	for _, e := range rec.events {
		byType[e.Type]++
	}
	if byType[obs.CacheMiss] != 1 || byType[obs.CacheHit] != 1 || byType[obs.EvalDone] != 1 {
		t.Fatalf("event counts = %v, want one miss, one hit, one eval.done", byType)
	}
}
