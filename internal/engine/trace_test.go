package engine

import (
	"encoding/json"
	"testing"
	"time"

	"spotlight/internal/obs"
)

func TestTraceBufferStampsLikeJSONL(t *testing.T) {
	b := NewTraceBuffer()
	b.Emit(obs.Event{Type: obs.RunStart, Detail: "spotlight", N: 4})
	b.Emit(obs.Event{Type: obs.CacheHit})
	events, done, _ := b.Since(0)
	if done {
		t.Fatal("stream reported done before End")
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		// The SSE wire format is the JSONL taxonomy verbatim: every
		// stamped event must survive the strict parser.
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ParseLine(line); err != nil {
			t.Fatalf("buffered event does not round-trip the JSONL schema: %v", err)
		}
	}
}

func TestTraceBufferSinceWindows(t *testing.T) {
	b := NewTraceBuffer()
	for i := 0; i < 5; i++ {
		b.Emit(obs.Event{Type: obs.CacheMiss})
	}
	if events, _, _ := b.Since(3); len(events) != 2 {
		t.Fatalf("Since(3) returned %d events, want 2", len(events))
	}
	if events, _, _ := b.Since(99); len(events) != 0 {
		t.Fatalf("Since(99) returned %d events, want 0", len(events))
	}
	if events, _, _ := b.Since(-1); len(events) != 5 {
		t.Fatalf("Since(-1) returned %d events, want 5", len(events))
	}
}

func TestTraceBufferWakesSubscriberOnEmitAndEnd(t *testing.T) {
	b := NewTraceBuffer()
	_, _, more := b.Since(0)
	go b.Emit(obs.Event{Type: obs.CacheHit})
	select {
	case <-more:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit did not wake the subscriber")
	}
	events, done, more := b.Since(0)
	if len(events) != 1 || done {
		t.Fatalf("after wake: %d events, done=%v; want 1, false", len(events), done)
	}
	go b.End()
	select {
	case <-more:
	case <-time.After(5 * time.Second):
		t.Fatal("End did not wake the subscriber")
	}
	if _, done, _ := b.Since(1); !done {
		t.Fatal("stream not done after End")
	}
	// Emits after End are dropped: the job is terminal and subscribers
	// have been released on a final event count.
	b.Emit(obs.Event{Type: obs.CacheHit})
	if b.Len() != 1 {
		t.Fatalf("Emit after End grew the buffer to %d events", b.Len())
	}
}

// TestTraceBufferMakesChannelsOnlyForSubscribers: an Emit nobody waits
// on allocates no change channel; a subscriber's channel is closed by
// the next change; and Since never hands out a nil channel, after End
// included.
func TestTraceBufferMakesChannelsOnlyForSubscribers(t *testing.T) {
	b := NewTraceBuffer()
	b.events = make([]obs.Event, 0, 1024) // the retained trace is not under test
	emit := func() { b.Emit(obs.Event{Type: obs.CacheHit}) }
	if n := testing.AllocsPerRun(100, emit); n != 0 {
		t.Fatalf("Emit with no subscriber allocated %v objects, want 0", n)
	}
	_, _, more := b.Since(0)
	if more == nil {
		t.Fatal("Since returned a nil channel")
	}
	if _, _, again := b.Since(0); again != more {
		t.Fatal("a second Since before any change made a new channel")
	}
	emit()
	select {
	case <-more:
	default:
		t.Fatal("Emit did not close the subscriber's channel")
	}
	if n := testing.AllocsPerRun(100, emit); n != 0 {
		t.Fatalf("Emit after the subscriber woke allocated %v objects, want 0", n)
	}
	b.End()
	if _, done, more := b.Since(0); !done || more == nil {
		t.Fatalf("after End: done=%v, channel nil=%v; want true, false", done, more == nil)
	}
}

// TestTraceBufferCountsOccurrences: the per-type count weighs each event
// by Event.Count, so a folded cache.hit with n=3 counts three, and
// events after End are neither kept nor counted.
func TestTraceBufferCountsOccurrences(t *testing.T) {
	b := NewTraceBuffer()
	b.Emit(obs.Event{Type: obs.CacheHit})
	b.Emit(obs.Event{Type: obs.CacheHit, N: 3})
	b.Emit(obs.Event{Type: obs.CacheMiss})
	b.Emit(obs.Event{Type: obs.EvalBatch, N: 8}) // n is a batch size, not a fold
	b.End()
	b.Emit(obs.Event{Type: obs.CacheHit, N: 5})
	b.Emit(obs.Event{Type: obs.CacheMiss})
	for typ, want := range map[obs.EventType]int64{
		obs.CacheHit: 4, obs.CacheMiss: 1, obs.EvalBatch: 1, obs.EvalDone: 0,
	} {
		if got := b.Count(typ); got != want {
			t.Errorf("Count(%s) = %d, want %d", typ, got, want)
		}
	}
	if b.Len() != 4 {
		t.Errorf("Len = %d after End, want 4", b.Len())
	}
}
