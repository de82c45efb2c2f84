package eval

import (
	"io"
	"math/rand"
	"testing"

	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// BenchmarkEvalCache measures the memo cache against the bare analytical
// backend: "bare" is the uncached cost of one evaluation, "miss" adds
// the cache's bookkeeping on the cold path for a new schedule in a known
// context (the common case: a layer search costs many schedules against
// one accelerator and layer), "miss-newctx" a miss whose context is new
// too, "hit" and "concurrent" are the warm path serially and under
// parallel load, and "batch-hit" a warm search-round-shaped batch. CI
// runs this with -benchtime=1x as a smoke test; see DESIGN.md for
// recorded numbers.
func BenchmarkEvalCache(b *testing.B) {
	const keys = 256
	trs := randomTriples(9, keys)[:keys]

	b.Run("bare", func(b *testing.B) {
		backend, err := Open("maestro")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := trs[i%keys]
			backend.Evaluate(tr.a, tr.s, tr.l)
		}
	})

	b.Run("miss", func(b *testing.B) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		a, s, l := validTriple(b, pipe)
		// Loop orders do not change a point's validity: each pair of
		// permutations is a new key on a valid point.
		perms := make([][workload.NumDims]workload.Dim, 5040)
		for i := range perms {
			perms[i] = nthPermutation(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.OuterOrder, s.InnerOrder = perms[i%len(perms)], perms[i/len(perms)%len(perms)]
			pipe.Evaluate(a, s, l)
		}
	})

	b.Run("miss-newctx", func(b *testing.B) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		base := trs[0]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l := base.l
			l.N = i + 1 // unique batch size per iteration: every call is a new context
			pipe.Evaluate(base.a, base.s, l)
		}
	})

	b.Run("hit", func(b *testing.B) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		for _, tr := range trs {
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}
		// The warm path is pinned allocation-free: the packed key is a
		// value (no serialization buffer to allocate) and a hit touches
		// nothing but the shard's two maps.
		tr := trs[0]
		if avg := testing.AllocsPerRun(100, func() {
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}); avg != 0 {
			b.Fatalf("cache hit allocated %.1f objects/op, want 0", avg)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := trs[i%keys]
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}
	})

	b.Run("batch-hit", func(b *testing.B) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		// One search-round-shaped batch: 64 schedules against a single
		// (accelerator, layer) pair.
		rng := rand.New(rand.NewSource(3))
		base := trs[0]
		grp := batchGroup{a: base, ss: make([]sched.Schedule, 64)}
		for i := range grp.ss {
			grp.ss[i] = sched.Free().Random(rng, base.l, base.a.RFBytesPerPE(), base.a.L2Bytes())
		}
		pipe.EvaluateBatch(grp.a.a, grp.ss, grp.a.l)
		// A warm batch allocates only the two result slices the
		// interface hands back; the miss set lives in the pooled
		// scratch.
		if avg := testing.AllocsPerRun(100, func() {
			pipe.EvaluateBatch(grp.a.a, grp.ss, grp.a.l)
		}); avg > 2 {
			b.Fatalf("warm batch allocated %.1f objects/op, want <= 2 (the result slices)", avg)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pipe.EvaluateBatch(grp.a.a, grp.ss, grp.a.l)
		}
	})

	b.Run("concurrent", func(b *testing.B) {
		pipe := MustFromSpec("maestro,cache", SpecOptions{})
		for _, tr := range trs {
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				tr := trs[i%keys]
				i++
				pipe.Evaluate(tr.a, tr.s, tr.l)
			}
		})
	})
}

// BenchmarkTraceOverhead measures what tracing costs an evaluation
// pipeline. "untraced" is the baseline: a pipeline without a tracer,
// which every production run without -trace uses, and whose backend
// adapter counts the call (one clock reading, shared with tracing) and
// pays one branch for tracing. "nop" passes the disabled obs.Nop
// sink, which the adapter treats exactly like no tracer, and "jsonl"
// streams every event to an io.Discard-backed JSONL sink — the full cost
// of -trace minus the disk. "span" evaluates maestro,cache through a
// span on that sink, as a layer search does: hits and misses go to the
// span's tally, and only the backend's eval.done events are written.
// The acceptance bar is nop within noise of untraced; CI runs this with
// -benchtime=1x as a smoke test.
func BenchmarkTraceOverhead(b *testing.B) {
	const keys = 256
	trs := randomTriples(9, keys)[:keys]
	run := func(b *testing.B, pipe *Pipeline) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := trs[i%keys]
			pipe.Evaluate(tr.a, tr.s, tr.l)
		}
	}
	b.Run("untraced", func(b *testing.B) {
		run(b, MustFromSpec("maestro", SpecOptions{}))
	})
	b.Run("nop", func(b *testing.B) {
		run(b, MustFromSpec("maestro", SpecOptions{Tracer: obs.Nop}))
	})
	b.Run("jsonl", func(b *testing.B) {
		run(b, MustFromSpec("maestro", SpecOptions{Tracer: obs.NewJSONL(io.Discard)}))
	})
	b.Run("span", func(b *testing.B) {
		sink := obs.NewJSONL(io.Discard)
		pipe := MustFromSpec("maestro,cache", SpecOptions{Tracer: sink})
		sp := obs.StartSpan(sink, "sw.layer")
		defer sp.End()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := trs[i%keys]
			pipe.EvaluateSpan(sp, tr.a, tr.s, tr.l)
		}
	})
}
