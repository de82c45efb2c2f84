package eval

import (
	"fmt"
	"testing"

	"spotlight/internal/maestro"
	"spotlight/internal/obs"
)

// A miss allocates only what the pipeline retains. Both gates go
// through pooled scratch, so they skip under -race (see raceEnabled).

// TestEvaluateSpanMissAllocatesOnlyItsEntry pins a maestro,cache miss
// through the single-item span path to the memo entry it keeps: the
// entry, its done channel, and the shard map's copy of the key (a Key
// is too large for the map to store inline).
func TestEvaluateSpanMissAllocatesOnlyItsEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	pipe := MustFromSpec("maestro,cache", SpecOptions{})
	a, s, l := validTriple(t, pipe)
	// Each call renames the layer, which the cost model ignores, so every
	// call is a miss on a valid point.
	names := make([]string, 2000)
	for i := range names {
		names[i] = fmt.Sprintf("layer-%d", i)
	}
	i := 0
	miss := func() {
		l.Name = names[i]
		i++
		if _, err := pipe.EvaluateSpan(nil, a, s, l); err != nil {
			t.Fatal(err)
		}
	}
	for i < len(names)/2 { // every shard has its table before the count
		miss()
	}
	if n := testing.AllocsPerRun(100, miss); n > 3 {
		t.Errorf("a cache miss allocated %v objects, want <= 3 (the memo entry, its channel and its key)", n)
	}
}

// TestEvaluateSpanHitUnderSpanAllocatesNothing pins the tally path: a
// maestro,cache hit under a live span adds to the span's tally instead
// of emitting an event, so it allocates nothing, and End reports every
// hit in one event.
func TestEvaluateSpanHitUnderSpanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	sink := &spanSink{}
	pipe := MustFromSpec("maestro,cache", SpecOptions{Tracer: sink})
	a, s, l := validTriple(t, maestro.New())
	sp := obs.StartSpan(sink, "sw.layer")
	defer sp.End()
	hit := func() {
		if _, err := pipe.EvaluateSpan(sp, a, s, l); err != nil {
			t.Fatal(err)
		}
	}
	hit() // the miss that fills the entry
	if n := testing.AllocsPerRun(100, hit); n != 0 {
		t.Errorf("a cache hit under a span allocated %v objects, want 0", n)
	}
	sp.End()
	if hits := sink.byType(obs.CacheHit); len(hits) != 1 || hits[0].Count() != 101 {
		t.Errorf("span folded its hits into %+v, want one cache.hit with n=101", hits)
	}
}

// TestDiskAppendAllocatesOnlyTheIndexCopy pins a disk-cache miss to the
// one copy of the value the journal's index keeps: record keys are
// hashed on the stack and values and records are encoded into reused
// buffers.
func TestDiskAppendAllocatesOnlyTheIndexCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{DelayCycles: 7}, nil }}
	pipe := Chain(fake, WithDisk(DiskOptions{Dir: t.TempDir(), Backend: "fake", Fingerprint: "fake/v1"}))
	defer pipe.Close()
	if pipe.Disk().Store() == nil {
		t.Fatalf("journal did not open: %v", pipe.Disk().OpenErr())
	}
	tr := randomTriples(1, 1)[0]
	append1 := func() {
		tr.a.NoCBW++ // a new record key per call
		if _, err := pipe.EvaluateSpan(nil, tr.a, tr.s, tr.l); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		append1()
	}
	if n := testing.AllocsPerRun(100, append1); n > 1 {
		t.Errorf("a disk append allocated %v objects, want <= 1 (the index copy)", n)
	}
	if got := pipe.Disk().Store().Snapshot().Puts; got != 1101 {
		t.Fatalf("journal took %d appends, want 1101", got)
	}
}
