package obs

import (
	"encoding/json"
	"io"
)

// Encoder writes events in the trace wire encoding: each event as
// json.Marshal renders it, followed by a newline. The -trace JSONL file
// and spotlightd's SSE frames both go through it, so the two sources
// carry byte-identical event objects. It reuses its buffers across
// events, so encoding one allocates nothing. Not safe for concurrent
// use.
type Encoder struct {
	enc *json.Encoder
	e   Event // the event being encoded, so Encode boxes a pointer, not a copy
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{enc: json.NewEncoder(w)}
}

// Encode writes e and a newline to the underlying writer in one Write.
// Like json.Encoder, it stops at the first write error and returns it
// from then on.
func (x *Encoder) Encode(e Event) error {
	x.e = e
	return x.enc.Encode(&x.e)
}
