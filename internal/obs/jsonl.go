package obs

import (
	"bufio"
	"io"
	"os"
	"sync"
	"time"
)

// JSONL writes trace events as one JSON object per line. It is safe for
// concurrent Emit calls: a mutex serializes encoding and stamps each
// event with a monotone sequence number and the milliseconds elapsed
// since the sink was opened. Write errors are sticky — the first one is
// retained, later events are dropped, and Close reports it — so a full
// disk degrades tracing, never the search.
type JSONL struct {
	mu    sync.Mutex
	w     *bufio.Writer
	enc   *Encoder  // writes into w
	c     io.Closer // underlying file, when the sink owns one
	start time.Time
	seq   int64
	err   error
}

// NewJSONL returns a JSONL sink over w. The caller owns w's lifetime;
// call Close to flush buffered events before reading what was written.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: NewEncoder(bw), start: time.Now()}
}

// CreateJSONL creates (truncating) a trace file at path and returns a
// sink that owns it: Close flushes and closes the file.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := NewJSONL(f)
	j.c = f
	return j, nil
}

// Enabled implements Tracer.
func (j *JSONL) Enabled() bool { return true }

// Emit implements Tracer: stamps and appends one line.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.seq++
	e.Seq = j.seq
	e.TMS = MS(time.Since(j.start))
	if err := j.enc.Encode(e); err != nil {
		j.err = err
	}
}

// Events returns how many events have been written.
func (j *JSONL) Events() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Close flushes buffered lines (and closes the underlying file when the
// sink owns one), returning the first error the sink encountered.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if j.c != nil {
		if err := j.c.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.c = nil
	}
	return j.err
}
