package core

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"spotlight/internal/obs"
)

// TestTracedRunHistoryBitIdentical is the tentpole invariant: tracing is
// observe-only. A fully traced run — JSONL sink, every event class live —
// produces a History bit-identical to the untraced run's, at one worker
// and at eight. (Elapsed is wall clock by contract and zeroed before the
// comparison, as every determinism test here does.)
func TestTracedRunHistoryBitIdentical(t *testing.T) {
	run := func(tr obs.Tracer, workers int) Result {
		cfg := tinyConfig(21)
		cfg.Tracer = tr
		cfg.Workers = workers
		res, err := Run(cfg, NewSpotlight())
		if err != nil {
			t.Fatalf("run (workers=%d, traced=%v): %v", workers, obs.Enabled(tr), err)
		}
		return res
	}
	ref := run(nil, 1)
	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		got := run(sink, workers)
		if err := sink.Close(); err != nil {
			t.Fatalf("workers=%d: sink close: %v", workers, err)
		}
		if !reflect.DeepEqual(stripElapsed(ref.History), stripElapsed(got.History)) {
			t.Fatalf("workers=%d: traced history differs from untraced", workers)
		}
		if ref.Best.Objective != got.Best.Objective {
			t.Fatalf("workers=%d: traced best %v != untraced %v",
				workers, got.Best.Objective, ref.Best.Objective)
		}
		checkTraceStream(t, &buf, len(ref.History), len(tinyModel().Layers))
	}
}

// checkTraceStream validates every line of a run's trace against the
// event schema and checks the stream's structural invariants: dense
// sequence numbers, one run.start and one run.end, exactly one
// hw.propose per history point, and one balanced sw.layer span per
// layer search (samples × layers).
func checkTraceStream(t *testing.T, buf *bytes.Buffer, samples, layers int) {
	t.Helper()
	byType := map[obs.EventType]int{}
	layerSpans := map[obs.EventType]int{} // span.start/span.end of kind sw.layer
	var seq int64
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		e, err := obs.ParseLine(sc.Bytes())
		if err != nil {
			t.Fatalf("trace line %d: %v\n%s", seq+1, err, sc.Bytes())
		}
		if e.Seq != seq+1 {
			t.Fatalf("trace seq %d follows %d; want dense 1..N", e.Seq, seq)
		}
		seq = e.Seq
		byType[e.Type]++
		if (e.Type == obs.SpanStart || e.Type == obs.SpanEnd) && e.Detail == "sw.layer" {
			layerSpans[e.Type]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if byType[obs.RunStart] != 1 || byType[obs.RunEnd] != 1 {
		t.Fatalf("run.start/run.end counts = %d/%d, want 1/1",
			byType[obs.RunStart], byType[obs.RunEnd])
	}
	if byType[obs.HWPropose] != samples {
		t.Fatalf("hw.propose count = %d, want %d", byType[obs.HWPropose], samples)
	}
	starts, ends := layerSpans[obs.SpanStart], layerSpans[obs.SpanEnd]
	if starts == 0 || starts != ends || starts != samples*layers {
		t.Fatalf("sw.layer span start/end counts = %d/%d, want both %d (%d samples × %d layers)",
			starts, ends, samples*layers, samples, layers)
	}
	if byType[obs.Incumbent] == 0 {
		t.Fatal("no incumbent events; a feasible run must improve at least once")
	}
	if byType[obs.DABOFit] == 0 {
		t.Fatal("no dabo.fit events; the surrogate must have been refit")
	}
}

// TestTracedCheckpointRoundTrip: checkpoint.save events carry the sample
// they cover, a resumed run emits checkpoint.load, and — the fingerprint
// half of the invariant — traced and untraced runs share checkpoints
// because the Tracer field is excluded from the fingerprint.
func TestTracedCheckpointRoundTrip(t *testing.T) {
	var cps []*Checkpoint
	cfg := tinyConfig(5)
	cfg.OnCheckpoint = func(cp *Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	cfg.Tracer = sink
	full, err := Run(cfg, NewSpotlight())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	saves := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		e, err := obs.ParseLine(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if e.Type == obs.CheckpointSave {
			saves++
			if e.Sample != saves {
				t.Fatalf("checkpoint.save #%d carries sample %d", saves, e.Sample)
			}
		}
	}
	if saves != cfg.HWSamples {
		t.Fatalf("saw %d checkpoint.save events, want %d", saves, cfg.HWSamples)
	}

	// Resume the untraced twin from a mid-run checkpoint written by the
	// traced run: fingerprints must match, and the tail must emit
	// checkpoint.load.
	mid := cps[len(cps)/2]
	var tailBuf bytes.Buffer
	tailSink := obs.NewJSONL(&tailBuf)
	resumed := tinyConfig(5)
	resumed.Resume = mid
	resumed.Tracer = tailSink
	got, err := Run(resumed, NewSpotlight())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := tailSink.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripElapsed(full.History), stripElapsed(got.History)) {
		t.Fatal("resumed traced run diverged from the uninterrupted run")
	}
	loads := 0
	sc = bufio.NewScanner(&tailBuf)
	for sc.Scan() {
		e, err := obs.ParseLine(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if e.Type == obs.CheckpointLoad {
			loads++
			if e.Sample != mid.Samples {
				t.Fatalf("checkpoint.load carries sample %d, want %d", e.Sample, mid.Samples)
			}
		}
	}
	if loads != 1 {
		t.Fatalf("saw %d checkpoint.load events, want 1", loads)
	}
}
