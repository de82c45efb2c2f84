package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestJSONLRoundTrip proves every emitted event comes back out of
// ParseLine schema-valid, with monotone sequence numbers and
// non-decreasing timestamps.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{Type: RunStart, Detail: "Spotlight", N: 4})
	j.Emit(Event{Type: HWPropose, Sample: 1, Detail: "pe=64"})
	j.Emit(Event{Type: EvalDone, Scope: "maestro", Detail: "ok", DurMS: 1.25})
	j.Emit(Event{Type: Incumbent, Sample: 1, Value: 3.5})
	j.Emit(Event{Type: RunEnd, N: 4})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := j.Events(); got != 5 {
		t.Fatalf("Events() = %d, want 5", got)
	}

	sc := bufio.NewScanner(&buf)
	var seq int64
	var lastT float64
	n := 0
	for sc.Scan() {
		e, err := ParseLine(sc.Bytes())
		if err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		if e.Seq != seq+1 {
			t.Fatalf("line %d: seq %d, want %d", n+1, e.Seq, seq+1)
		}
		if e.TMS < lastT {
			t.Fatalf("line %d: t_ms regressed %v -> %v", n+1, lastT, e.TMS)
		}
		seq, lastT = e.Seq, e.TMS
		n++
	}
	if n != 5 {
		t.Fatalf("read %d lines, want 5", n)
	}
}

// TestJSONLConcurrentEmit hammers one sink from many goroutines: every
// line must still be valid with a dense 1..N sequence.
func TestJSONLConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Emit(Event{Type: CacheHit})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seen := map[int64]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		e, err := ParseLine(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d events, want %d", len(seen), workers*per)
	}
}

// TestValidateRejects covers the schema's failure modes.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"unknown type", Event{Seq: 1, Type: "nope"}, "unknown event type"},
		{"missing seq", Event{Type: RunEnd}, "seq"},
		{"missing sample", Event{Seq: 1, Type: HWPropose, Detail: "a"}, "missing sample"},
		{"missing scope", Event{Seq: 1, Type: DABODegraded}, "missing scope"},
		{"missing detail", Event{Seq: 1, Type: EvalDone}, "missing detail"},
		{"missing value", Event{Seq: 1, Type: Incumbent, Sample: 1}, "missing value"},
		{"missing n", Event{Seq: 1, Type: EvalBatch}, "missing n"},
		{"negative dur", Event{Seq: 1, Type: RunEnd, DurMS: -1}, "negative"},
		{"negative n", Event{Seq: 1, Type: CacheHit, N: -3}, "negative n"},
		{"negative n where n is required", Event{Seq: 1, Type: EvalBatch, N: -1}, "negative n"},
	}
	for _, c := range cases {
		if err := c.ev.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// TestParseLineStrict rejects lines with unknown fields: schema drift
// between writer and reader must be loud.
func TestParseLineStrict(t *testing.T) {
	if _, err := ParseLine([]byte(`{"seq":1,"t_ms":0,"type":"run.end","bogus":3}`)); err == nil {
		t.Fatal("ParseLine accepted an unknown field")
	}
}

// TestEventTypesCoverSchema: every type returned by EventTypes validates
// when its required fields are filled, and the list is sorted.
func TestEventTypesCoverSchema(t *testing.T) {
	ts := EventTypes()
	if len(ts) != len(schema) {
		t.Fatalf("EventTypes returned %d types, schema has %d", len(ts), len(schema))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			t.Fatalf("EventTypes not sorted: %q after %q", ts[i], ts[i-1])
		}
	}
	for _, typ := range ts {
		ev := Event{Seq: 1, Type: typ, Sample: 1, Layer: "m/l", Scope: "hw",
			Detail: "x", Value: 1, N: 1}
		if schema[typ].span {
			ev.Span, ev.Parent = 2, 1
		}
		if err := ev.Validate(); err != nil {
			t.Errorf("fully populated %s event invalid: %v", typ, err)
		}
	}
}

// TestEnabledAndNop: nil and Nop are disabled, JSONL is enabled, and the
// Enabled helper guards both.
func TestEnabledAndNop(t *testing.T) {
	if Enabled(nil) {
		t.Error("Enabled(nil) = true")
	}
	if Enabled(Nop) {
		t.Error("Enabled(Nop) = true")
	}
	Nop.Emit(Event{Type: RunEnd}) // must not panic
	if !Enabled(NewJSONL(&bytes.Buffer{})) {
		t.Error("Enabled(JSONL) = false")
	}
}

// TestTee: nil and disabled members are dropped, a single live sink is
// returned unwrapped, and a real fan-out reaches every sink.
func TestTee(t *testing.T) {
	if tr := Tee(nil, Nop); tr != nil {
		t.Fatalf("Tee(nil, Nop) = %v, want nil", tr)
	}
	j := NewJSONL(&bytes.Buffer{})
	if tr := Tee(nil, j); tr != Tracer(j) {
		t.Fatalf("Tee with one live sink should return it unwrapped")
	}
	var b1, b2 bytes.Buffer
	j1, j2 := NewJSONL(&b1), NewJSONL(&b2)
	tr := Tee(j1, Nop, j2)
	tr.Emit(Event{Type: RunEnd})
	if j1.Events() != 1 || j2.Events() != 1 {
		t.Fatalf("tee reached (%d, %d) sinks, want (1, 1)", j1.Events(), j2.Events())
	}
}

// errWriter fails after n bytes, for sticky-error behaviour.
type errWriter struct{ left int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	w.left -= len(p)
	return len(p), nil
}

// TestJSONLStickyError: after the first write error the sink drops
// events quietly and Close reports the error — tracing degrades, the
// caller is never disturbed mid-run.
func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(&errWriter{left: 1})
	for i := 0; i < 10000; i++ { // enough to overflow the bufio buffer
		j.Emit(Event{Type: CacheHit})
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close() = nil, want the sticky write error")
	}
}
