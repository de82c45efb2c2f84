package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spotlight/internal/obs"
)

// TestSummarizeGolden pins the full report for the checked-in miniature
// trace. The fixture exercises every section of the report but the
// guard line (TestSummarizeGuardTimeouts): phase breakdown, convergence
// table, cache/eval/backend summaries, and the surrogate line. Regenerate with
//
//	go run ./cmd/tracestat cmd/tracestat/testdata/mini.jsonl > cmd/tracestat/testdata/mini.golden
//
// after an intentional format change.
func TestSummarizeGolden(t *testing.T) {
	trace, err := os.ReadFile(filepath.Join("testdata", "mini.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "mini.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := summarize(bytes.NewReader(trace), &got); err != nil {
		t.Fatalf("summarize: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("summary differs from golden file:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

func TestCheckAcceptsGoldenTrace(t *testing.T) {
	trace, err := os.ReadFile(filepath.Join("testdata", "mini.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := checkTrace(bytes.NewReader(trace), &out); err != nil {
		t.Fatalf("check: %v", err)
	}
	if got, want := out.String(), "49 events: schema OK (12 spans, all closed)\n"; got != want {
		t.Errorf("check output = %q, want %q", got, want)
	}
}

// TestSummarizeGuardTimeouts: guard.timeout events are counted on the
// report's guard line.
func TestSummarizeGuardTimeouts(t *testing.T) {
	trace := `{"seq":1,"t_ms":0,"type":"guard.timeout","detail":"20ms","dur_ms":20}` + "\n" +
		`{"seq":2,"t_ms":21,"type":"guard.timeout","detail":"20ms","dur_ms":20}` + "\n"
	var out bytes.Buffer
	if err := summarize(strings.NewReader(trace), &out); err != nil {
		t.Fatalf("summarize: %v", err)
	}
	if !strings.Contains(out.String(), "\nguard: timeouts=2\n") {
		t.Errorf("report lacks the guard line:\n%s", out.String())
	}
}

// TestSummarizeWeighsFoldedCacheEvents: a trace whose span folded its
// cache events into one event per kind (N = the count) and the same
// trace with one event per evaluation print identical cache lines.
func TestSummarizeWeighsFoldedCacheEvents(t *testing.T) {
	counts := []struct {
		k     obs.Tally
		e     obs.Event
		times int
	}{
		{obs.TallyCacheHit, obs.Event{Type: obs.CacheHit}, 5},
		{obs.TallyCacheMiss, obs.Event{Type: obs.CacheMiss}, 3},
		{obs.TallyPersistHit, obs.Event{Type: obs.CachePersist, Detail: "hit"}, 2},
		{obs.TallyPersistAppend, obs.Event{Type: obs.CachePersist, Detail: "append"}, 3},
	}
	render := func(folded bool) string {
		var trace bytes.Buffer
		sink := obs.NewJSONL(&trace)
		sink.Emit(obs.Event{Type: obs.CachePersist, Detail: "recovered", N: 4})
		sp := obs.StartSpan(sink, "sw.layer")
		for _, c := range counts {
			for i := 0; i < c.times; i++ {
				if folded {
					sp.CountTo(nil, c.k)
				} else {
					sp.Emit(c.e)
				}
			}
		}
		sp.End()
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := checkTrace(bytes.NewReader(trace.Bytes()), &out); err != nil {
			t.Fatalf("folded=%v: check: %v", folded, err)
		}
		out.Reset()
		if err := summarize(bytes.NewReader(trace.Bytes()), &out); err != nil {
			t.Fatalf("folded=%v: summarize: %v", folded, err)
		}
		var lines []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "cache:") || strings.HasPrefix(line, "persistent cache:") {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	folded, expanded := render(true), render(false)
	want := "cache: hits=5 misses=3 (62.5% hit rate)\n" +
		"persistent cache: append=3 hit=2 recovered=1"
	if expanded != want {
		t.Fatalf("expanded trace cache lines:\n%s\nwant:\n%s", expanded, want)
	}
	if folded != expanded {
		t.Errorf("folded trace cache lines:\n%s\nwant the expanded trace's:\n%s", folded, expanded)
	}
}

// TestCheckSpanlessTrace pins the pre-span output shape: a trace with no
// span events reports the plain event count, so old traces keep their
// exact -check output.
func TestCheckSpanlessTrace(t *testing.T) {
	trace := `{"seq":1,"t_ms":0,"type":"cache.hit"}` + "\n" +
		`{"seq":2,"t_ms":1,"type":"cache.miss"}` + "\n"
	var out bytes.Buffer
	if err := checkTrace(strings.NewReader(trace), &out); err != nil {
		t.Fatalf("check: %v", err)
	}
	if got, want := out.String(), "2 events: schema OK\n"; got != want {
		t.Errorf("check output = %q, want %q", got, want)
	}
}

// TestCheckReportsOpenSpans verifies that a truncated trace — spans
// started but never ended, as a canceled or crashed run leaves behind —
// is accepted and the open spans are reported, not treated as an error.
func TestCheckReportsOpenSpans(t *testing.T) {
	trace := `{"seq":1,"t_ms":0,"type":"span.start","span":1,"detail":"job"}` + "\n" +
		`{"seq":2,"t_ms":0,"type":"span.start","span":2,"parent":1,"detail":"run"}` + "\n" +
		`{"seq":3,"t_ms":1,"type":"span.end","span":2,"parent":1,"detail":"run","dur_ms":1}` + "\n"
	var out bytes.Buffer
	if err := checkTrace(strings.NewReader(trace), &out); err != nil {
		t.Fatalf("check: %v", err)
	}
	if got, want := out.String(), "3 events: schema OK (2 spans, 1 left open)\n"; got != want {
		t.Errorf("check output = %q, want %q", got, want)
	}
}

func TestCheckRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name, trace, wantErr string
	}{
		{
			name:    "unknown type",
			trace:   `{"seq":1,"t_ms":0,"type":"hw.explode"}` + "\n",
			wantErr: "unknown event type",
		},
		{
			name:    "unknown field",
			trace:   `{"seq":1,"t_ms":0,"type":"cache.hit","frobnication":3}` + "\n",
			wantErr: "unknown field",
		},
		{
			name:    "missing required field",
			trace:   `{"seq":1,"t_ms":0,"type":"hw.propose","detail":"pe=64"}` + "\n",
			wantErr: "missing sample",
		},
		{
			name: "gap in sequence numbers",
			trace: `{"seq":1,"t_ms":0,"type":"cache.hit"}` + "\n" +
				`{"seq":3,"t_ms":1,"type":"cache.hit"}` + "\n",
			wantErr: "dense sequence",
		},
		{
			name: "reused span id",
			trace: `{"seq":1,"t_ms":0,"type":"span.start","span":1,"detail":"job"}` + "\n" +
				`{"seq":2,"t_ms":1,"type":"span.start","span":1,"detail":"run"}` + "\n",
			wantErr: "reuses span id",
		},
		{
			name:    "span with unknown parent",
			trace:   `{"seq":1,"t_ms":0,"type":"span.start","span":2,"parent":1,"detail":"run"}` + "\n",
			wantErr: "unknown parent",
		},
		{
			name: "span under closed parent",
			trace: `{"seq":1,"t_ms":0,"type":"span.start","span":1,"detail":"job"}` + "\n" +
				`{"seq":2,"t_ms":1,"type":"span.end","span":1,"detail":"job","dur_ms":1}` + "\n" +
				`{"seq":3,"t_ms":2,"type":"span.start","span":2,"parent":1,"detail":"run"}` + "\n",
			wantErr: "already-closed parent",
		},
		{
			name:    "span.end for unknown span",
			trace:   `{"seq":1,"t_ms":0,"type":"span.end","span":7,"detail":"run","dur_ms":1}` + "\n",
			wantErr: "unknown span",
		},
		{
			name: "span closed twice",
			trace: `{"seq":1,"t_ms":0,"type":"span.start","span":1,"detail":"job"}` + "\n" +
				`{"seq":2,"t_ms":1,"type":"span.end","span":1,"detail":"job","dur_ms":1}` + "\n" +
				`{"seq":3,"t_ms":2,"type":"span.end","span":1,"detail":"job","dur_ms":2}` + "\n",
			wantErr: "closed twice",
		},
		{
			name:    "event references unknown parent span",
			trace:   `{"seq":1,"t_ms":0,"type":"cache.hit","parent":9}` + "\n",
			wantErr: "unknown parent span",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := checkTrace(strings.NewReader(tc.trace), &out)
			if err == nil {
				t.Fatalf("check accepted invalid trace %q", tc.trace)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestSummarizeEmptyTrace(t *testing.T) {
	if err := summarize(strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("summarize accepted an empty trace")
	}
}

// TestCriticalPathUnionOfOverlappingLeaves: two sw.layer leaves running
// on parallel workers overlap in time. Coverage is the union of their
// intervals (1–10 ms of a 10 ms root, 90%), where summing their
// durations would report 160%.
func TestCriticalPathUnionOfOverlappingLeaves(t *testing.T) {
	trace := `{"seq":1,"t_ms":0,"type":"span.start","span":1,"detail":"job"}` + "\n" +
		`{"seq":2,"t_ms":0,"type":"span.start","span":2,"parent":1,"detail":"trial","sample":1}` + "\n" +
		`{"seq":3,"t_ms":1,"type":"span.start","span":3,"parent":2,"detail":"sw.layer","layer":"m/a"}` + "\n" +
		`{"seq":4,"t_ms":2,"type":"span.start","span":4,"parent":2,"detail":"sw.layer","layer":"m/b"}` + "\n" +
		`{"seq":5,"t_ms":9,"type":"span.end","span":3,"parent":2,"detail":"sw.layer","dur_ms":8}` + "\n" +
		`{"seq":6,"t_ms":10,"type":"span.end","span":4,"parent":2,"detail":"sw.layer","dur_ms":8}` + "\n" +
		`{"seq":7,"t_ms":10,"type":"span.end","span":2,"parent":1,"detail":"trial","dur_ms":10}` + "\n" +
		`{"seq":8,"t_ms":10,"type":"span.end","span":1,"detail":"job","dur_ms":10}` + "\n"
	var out bytes.Buffer
	if err := summarize(strings.NewReader(trace), &out); err != nil {
		t.Fatalf("summarize: %v", err)
	}
	want := "critical path: leaf spans cover 90.0% of the root span's 10.0 ms\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
	}
}
