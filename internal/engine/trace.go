package engine

import (
	"sync"
	"time"

	"spotlight/internal/obs"
)

// TraceBuffer is an in-memory obs.Tracer that retains a job's full event
// stream and lets subscribers (spotlightd's SSE handler) replay it from
// any position and block for more. It is the server-side counterpart of
// the -trace JSONL file: events carry the same stamps the JSONL sink
// would give them — Seq is a per-buffer monotone sequence, TMS is
// milliseconds since the buffer (i.e. the job) started — so the SSE wire
// format is the obs taxonomy verbatim, one JSON object per data line.
//
// Retention is unbounded by design: a job's trace is its run log, a
// layer search is recorded by its sw.layer span alone, and spans fold
// the per-evaluation cache events into one count per layer search, so a
// quick-scale spotlightd search job (2 hardware × 12 software samples)
// keeps 300 to 500 events. Tracing stays observe-only
// — the buffer never feeds anything back into the run.
type TraceBuffer struct {
	start time.Time

	mu     sync.Mutex
	events []obs.Event
	counts map[obs.EventType]int64 // occurrences per type, weighted by Event.Count
	done   bool
	// changed is the channel the last Since handed out, closed (and
	// dropped) by the next append or End. It is made only when a
	// subscriber asks, so appends nobody waits on allocate no channel.
	changed chan struct{}
}

// NewTraceBuffer returns an empty buffer whose TMS clock starts now.
func NewTraceBuffer() *TraceBuffer {
	return &TraceBuffer{start: obs.Now()}
}

// Enabled reports true: a buffer exists to record.
func (b *TraceBuffer) Enabled() bool { return true }

// Emit stamps and appends one event and adds the occurrences it stands
// for to its type's count. Safe for concurrent use; events after End are
// dropped and not counted (the job is already terminal and subscribers
// have been released).
func (b *TraceBuffer) Emit(e obs.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	e.Seq = int64(len(b.events) + 1)
	e.TMS = obs.MS(obs.Since(b.start))
	b.events = append(b.events, e)
	if b.counts == nil {
		b.counts = make(map[obs.EventType]int64)
	}
	b.counts[e.Type] += e.Count()
	b.notifyLocked()
}

// Count returns how many occurrences of typ the buffer has recorded: the
// sum of Event.Count over its events of that type, so a span's folded
// cache.hit with n=3 counts three.
func (b *TraceBuffer) Count(typ obs.EventType) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts[typ]
}

// End marks the stream complete, waking every subscriber. Idempotent.
func (b *TraceBuffer) End() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	b.done = true
	b.notifyLocked()
}

// notifyLocked wakes blocked subscribers by closing the change channel
// handed out since the last change, if any; the next Since makes a
// fresh one. Callers hold b.mu.
func (b *TraceBuffer) notifyLocked() {
	if b.changed != nil {
		close(b.changed)
		b.changed = nil
	}
}

// Since returns the events at positions >= i, whether the stream has
// ended, and a channel that closes on the next change (never nil; after
// End it never closes, since nothing changes any more). A subscriber
// loop is:
//
//	for i := 0; ; {
//		evs, done, more := buf.Since(i)
//		... write evs ...
//		i += len(evs)
//		if done && len(evs) == 0 { return }
//		if len(evs) == 0 { <-more }  // or select against the client ctx
//	}
//
// The returned slice is capped at its length, so the buffer appending
// more events never aliases into what a subscriber is still writing.
func (b *TraceBuffer) Since(i int) (events []obs.Event, done bool, more <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i > len(b.events) {
		i = len(b.events)
	}
	if b.changed == nil {
		b.changed = make(chan struct{})
	}
	return b.events[i:len(b.events):len(b.events)], b.done, b.changed
}

// Len returns the number of events recorded so far.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}
