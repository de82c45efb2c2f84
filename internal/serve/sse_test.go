package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"spotlight/internal/obs"
)

// TestSSEFramesMatchMarshal streams a corpus through the handler's frame
// writer and compares it byte for byte with json.Marshal framed as
// "data: %s\n\n": every event type with its optional fields omitted,
// text needing HTML, quote and Unicode escapes, and extreme floats.
func TestSSEFramesMatchMarshal(t *testing.T) {
	var corpus []obs.Event
	for i, ty := range obs.EventTypes() {
		corpus = append(corpus, obs.Event{Seq: int64(i + 1), Type: ty})
	}
	corpus = append(corpus,
		obs.Event{Seq: 100, TMS: 1e-9, Type: obs.RunStart, Layer: "conv1/ü→∞ 日本語",
			Detail: `<b>"quoted" & 'single' \ back</b>`, Scope: "  \x01\xff"},
		obs.Event{Seq: 101, TMS: math.MaxFloat64, Type: obs.DABOFit, DurMS: 5e-324, Value: 1e21,
			N: -3, Span: 1 << 62, Parent: 9},
		obs.Event{Seq: 102, TMS: 123456.789, Type: obs.DABOFit, DurMS: 0.1, Value: 1e-7, Sample: 7},
		obs.Event{Seq: 103, TMS: 1e20, Type: obs.CacheHit, Value: math.Copysign(0, -1), DurMS: 1e-6},
	)

	var got, want bytes.Buffer
	sse := newSSEWriter(&got)
	for _, e := range corpus {
		if err := sse.event(e); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "data: %s\n\n", line)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("SSE stream differs from json.Marshal framing:\ngot  %q\nwant %q", got.Bytes(), want.Bytes())
	}
}
