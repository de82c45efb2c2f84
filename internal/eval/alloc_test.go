package eval

import (
	"fmt"
	"testing"

	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/workload"
)

// A miss allocates only what the pipeline retains. Both gates go
// through pooled scratch, so they skip under -race (see raceEnabled).

// TestEvaluateSpanMissAllocatesOnlyItsEntry pins what a maestro,cache
// miss through the single-item span path allocates. A new schedule in a
// known context — the common case, a layer search costing schedules
// against one (accelerator, layer) pair — allocates nothing of its own:
// the key is stored inline in the shard map and the entry comes from
// the shard's slab, so slab chunks and map growth, amortized over 2,000
// misses, stay under a quarter of an object per miss. A miss in a new
// context (here: a renamed layer, which the cost model ignores) also
// interns the context, whose key is too large for the map to store
// inline.
func TestEvaluateSpanMissAllocatesOnlyItsEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	t.Run("known-context", func(t *testing.T) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		a, s, l := validTriple(t, maestro.New())
		// Loop orders do not change a point's validity, so each
		// permutation is a new key on a valid point.
		const batch = 2000
		orders := make([][workload.NumDims]workload.Dim, 2*batch)
		for i := range orders {
			orders[i] = nthPermutation(i)
		}
		i := 0
		misses := func() {
			for end := i + batch; i < end; i++ {
				s.OuterOrder = orders[i]
				if _, err := pipe.EvaluateSpan(nil, a, s, l); err != nil {
					t.Fatal(err)
				}
			}
		}
		// AllocsPerRun's warm-up call fills the first 2,000 entries; the
		// measured call grows the same shard's map and slab to 4,000.
		if n := testing.AllocsPerRun(1, misses) / batch; n >= 0.25 {
			t.Errorf("a miss in a known context allocated %v objects amortized, want < 0.25", n)
		}
		if snap := pipe.Cache().Snapshot(); snap.Misses != 2*batch || snap.Entries != 2*batch {
			t.Fatalf("snapshot %+v, want %d misses and entries", snap, 2*batch)
		}
	})
	t.Run("new-context", func(t *testing.T) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		a, s, l := validTriple(t, pipe)
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
		for i < len(names)/2 { // every shard has its tables before the count
			miss()
		}
		if n := testing.AllocsPerRun(100, miss); n > 2 {
			t.Errorf("a miss in a new context allocated %v objects, want <= 2 (the interned context and its share of slab and map growth)", n)
		}
	})
}

// nthPermutation returns the i-th permutation (i < 7!) of the seven loop
// dimensions, in lexicographic order of its Lehmer code.
func nthPermutation(i int) [workload.NumDims]workload.Dim {
	rest := append([]workload.Dim(nil), workload.AllDims[:]...)
	var out [workload.NumDims]workload.Dim
	for k := range out {
		f := 1
		for j := 2; j < len(rest); j++ {
			f *= j
		}
		out[k] = rest[i/f]
		rest = append(rest[:i/f], rest[i/f+1:]...)
		i %= f
	}
	return out
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
