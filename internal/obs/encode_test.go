package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// encodingCorpus covers what the trace encoding must render exactly as
// json.Marshal does: every event type with its optional fields at their
// omitted zero values, text needing HTML, quote, control and Unicode
// escapes (and invalid UTF-8), and floats at the extremes of the
// shortest-representation formatter.
func encodingCorpus() []Event {
	var evs []Event
	for i, ty := range EventTypes() {
		evs = append(evs, Event{Seq: int64(i + 1), Type: ty})
	}
	return append(evs,
		Event{Seq: 100, TMS: 1e-9, Type: RunStart, Layer: "conv1/ü→∞ 日本語",
			Detail: `<b>"quoted" & 'single' \ back</b>`, Scope: "  \x01\t\xff"},
		Event{Seq: 101, TMS: math.MaxFloat64, Type: DABOFit, DurMS: 5e-324, Value: 1e21,
			N: -3, Span: 1 << 62, Parent: 9},
		Event{Seq: 102, TMS: 123456.789, Type: DABOFit, DurMS: 0.1, Value: 1e-7, Sample: 7},
		Event{Seq: 103, TMS: 1e20, Type: CacheHit, Value: math.Copysign(0, -1), DurMS: 1e-6},
		Event{Seq: math.MaxInt64, TMS: 0.30000000000000004, Type: Incumbent, Value: -1.5e-300, N: math.MaxInt},
	)
}

func TestEncoderMatchesMarshal(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, e := range encodingCorpus() {
		buf.Reset()
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != string(want)+"\n" {
			t.Errorf("Encode(%+v) = %q, want %q", e, got, string(want)+"\n")
		}
	}
}

// TestJSONLMatchesMarshal pins the -trace file to json.Marshal of each
// stamped event plus a newline, byte for byte.
func TestJSONLMatchesMarshal(t *testing.T) {
	var out bytes.Buffer
	j := NewJSONL(&out)
	corpus := encodingCorpus()
	for _, e := range corpus {
		j.Emit(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	written := out.String()
	if n := strings.Count(written, "\n"); n != len(corpus) {
		t.Fatalf("%d lines for %d events", n, len(corpus))
	}
	sc := bufio.NewScanner(strings.NewReader(written))
	for i := 0; sc.Scan(); i++ {
		line := sc.Text()
		// The sink stamps seq and t_ms; take them from the line.
		var stamps struct {
			Seq int64   `json:"seq"`
			TMS float64 `json:"t_ms"`
		}
		if err := json.Unmarshal([]byte(line), &stamps); err != nil {
			t.Fatal(err)
		}
		want := corpus[i]
		want.Seq, want.TMS = stamps.Seq, stamps.TMS
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if line != string(b) {
			t.Errorf("line %d = %q, want %q", i+1, line, b)
		}
	}
}

// TestJSONLStopsAtUnencodableEvent: an event json cannot encode stops
// the sink like a write error does, and Close reports it.
func TestJSONLStopsAtUnencodableEvent(t *testing.T) {
	var out bytes.Buffer
	j := NewJSONL(&out)
	j.Emit(Event{Type: CacheHit})
	j.Emit(Event{Type: CacheHit, Value: math.NaN()})
	j.Emit(Event{Type: CacheMiss})
	err := j.Close()
	if _, ok := err.(*json.UnsupportedValueError); !ok {
		t.Fatalf("Close = %v, want the NaN's *json.UnsupportedValueError", err)
	}
	if n := strings.Count(out.String(), "\n"); n != 1 {
		t.Fatalf("%d lines written, want 1 (the events before the error)", n)
	}
}
