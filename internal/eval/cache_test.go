package eval

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// fakeEval is a scriptable evaluator that counts how many calls reach it.
type fakeEval struct {
	calls atomic.Int64
	fn    func() (maestro.Cost, error)
}

func (f *fakeEval) Name() string { return "fake" }

func (f *fakeEval) Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error) {
	f.calls.Add(1)
	return f.fn()
}

// triple is one evaluation input.
type triple struct {
	a hw.Accel
	s sched.Schedule
	l workload.Layer
}

// randomTriples draws count random design points (deterministically) over
// the edge space, duplicating every third so the cache sees repeats.
func randomTriples(seed int64, count int) []triple {
	rng := rand.New(rand.NewSource(seed))
	space, free := hw.EdgeSpace(), sched.Free()
	m, err := workload.ByName("ResNet-50")
	if err != nil {
		panic(err)
	}
	layers := m.Layers[:4]
	out := make([]triple, 0, count*4/3)
	for i := 0; i < count; i++ {
		l := layers[rng.Intn(len(layers))]
		a := space.Random(rng)
		s := free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		out = append(out, triple{a, s, l})
		if i%3 == 0 {
			out = append(out, triple{a, s, l})
		}
	}
	return out
}

// costBitsEqual compares two costs field by field on their float64 bit
// patterns, so even NaN-for-NaN agreement counts as identical.
func costBitsEqual(x, y maestro.Cost) bool {
	vx, vy := reflect.ValueOf(x), reflect.ValueOf(y)
	for i := 0; i < vx.NumField(); i++ {
		if math.Float64bits(vx.Field(i).Float()) != math.Float64bits(vy.Field(i).Float()) {
			return false
		}
	}
	return true
}

// TestCachedPipelineMatchesBareBackend is the satellite property test: a
// cached pipeline must return byte-identical costs and identically
// classified errors to the bare backend, for every input, including when
// many goroutines hit the same keys concurrently (run under -race).
func TestCachedPipelineMatchesBareBackend(t *testing.T) {
	cases := randomTriples(42, 60)
	bare := maestro.New()
	type expectation struct {
		cost    maestro.Cost
		ok      bool
		invalid bool
		msg     string
	}
	want := make([]expectation, len(cases))
	for i, c := range cases {
		cost, err := bare.Evaluate(c.a, c.s, c.l)
		want[i] = expectation{cost: cost, ok: err == nil, invalid: errors.Is(err, maestro.ErrInvalid)}
		if err != nil {
			want[i].msg = err.Error()
		}
	}

	pipe := MustFromSpec("maestro,cache", SpecOptions{})
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the cases from a different offset, so
			// concurrent misses and hits interleave across keys.
			for i := range cases {
				j := (i + w*7) % len(cases)
				c, exp := cases[j], want[j]
				cost, err := pipe.Evaluate(c.a, c.s, c.l)
				switch {
				case (err == nil) != exp.ok:
					errCh <- fmt.Errorf("case %d: error presence mismatch: %v", j, err)
					return
				case errors.Is(err, maestro.ErrInvalid) != exp.invalid:
					errCh <- fmt.Errorf("case %d: ErrInvalid classification mismatch: %v", j, err)
					return
				case err != nil && err.Error() != exp.msg:
					errCh <- fmt.Errorf("case %d: error %q, want %q", j, err, exp.msg)
					return
				case !costBitsEqual(cost, exp.cost):
					errCh <- fmt.Errorf("case %d: cost %+v not bit-identical to %+v", j, cost, exp.cost)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	snap := pipe.Cache().Snapshot()
	wantTotal := int64(workers * len(cases))
	if snap.Hits+snap.Misses != wantTotal {
		t.Fatalf("hits(%d)+misses(%d) != %d calls", snap.Hits, snap.Misses, wantTotal)
	}
	if snap.Hits == 0 {
		t.Fatal("no cache hits despite duplicated inputs and 8 workers")
	}
	if snap.Entries > snap.Misses {
		t.Fatalf("entries %d exceeds misses %d", snap.Entries, snap.Misses)
	}
}

// barrierEval is maestro behind a barrier: every batch that reaches it
// counts its items in and blocks until release is closed.
type barrierEval struct {
	maestro.Model
	entered atomic.Int64
	release chan struct{}
}

func (b *barrierEval) EvaluateTo(a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	b.entered.Add(int64(len(ss)))
	<-b.release
	b.Model.EvaluateTo(a, ss, l, costs, errs)
}

// TestConcurrentCallersOfOneKey: callers that miss one key at the same
// moment each evaluate it. The backend holds every call until all of
// them have missed, so all N miss; they get bit-identical results, the
// table keeps one entry, and the next call is a hit on it.
func TestConcurrentCallersOfOneKey(t *testing.T) {
	const callers = 8
	a, s, l := validTriple(t, maestro.New())
	var want result
	want.cost, want.err = maestro.New().Evaluate(a, s, l)
	backend := &barrierEval{release: make(chan struct{})}
	pipe := Chain(backend, WithCache())

	got := make([]result, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].cost, got[i].err = pipe.Evaluate(a, s, l)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); backend.entered.Load() != callers; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for every caller to miss")
		}
	}
	close(backend.release)
	wg.Wait()

	for i, r := range got {
		if err := sameResult(r.cost, r.err, want); err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	wantSnap := CacheSnapshot{Misses: callers, Entries: 1}
	if snap := pipe.Cache().Snapshot(); snap != wantSnap {
		t.Fatalf("snapshot %+v, want %+v", snap, wantSnap)
	}
	cost, err := pipe.Evaluate(a, s, l)
	if err := sameResult(cost, err, want); err != nil {
		t.Fatalf("hit: %v", err)
	}
	wantSnap.Hits = 1
	if snap := pipe.Cache().Snapshot(); snap != wantSnap || backend.entered.Load() != callers {
		t.Fatalf("snapshot %+v after %d backend items, want %+v", snap, backend.entered.Load(), wantSnap)
	}
}

func TestInvalidVerdictIsMemoized(t *testing.T) {
	invalid := fmt.Errorf("pe array too small: %w", maestro.ErrInvalid)
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{}, invalid }}
	pipe := Chain(fake, WithCache())
	cache := pipe.Cache()
	tr := randomTriples(2, 1)[0]

	_, err1 := pipe.Evaluate(tr.a, tr.s, tr.l)
	_, err2 := pipe.Evaluate(tr.a, tr.s, tr.l)
	if !errors.Is(err1, maestro.ErrInvalid) || !errors.Is(err2, maestro.ErrInvalid) {
		t.Fatalf("classification lost: %v / %v", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("memoized error %q differs from original %q", err2, err1)
	}
	if got := fake.calls.Load(); got != 1 {
		t.Fatalf("inner evaluator called %d times for a memoizable verdict, want 1", got)
	}
	if snap := cache.Snapshot(); snap.Hits != 1 || snap.Entries != 1 {
		t.Fatalf("snapshot = %+v, want one hit and one entry", snap)
	}
}

func TestTransientErrorIsNotMemoized(t *testing.T) {
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{}, errors.New("transient fault") }}
	pipe := Chain(fake, WithCache())
	cache := pipe.Cache()
	tr := randomTriples(3, 1)[0]

	for i := 0; i < 2; i++ {
		if _, err := pipe.Evaluate(tr.a, tr.s, tr.l); err == nil {
			t.Fatal("fault swallowed")
		}
	}
	if got := fake.calls.Load(); got != 2 {
		t.Fatalf("inner evaluator called %d times, want 2 (faults must not be cached)", got)
	}
	if snap := cache.Snapshot(); snap.Entries != 0 || snap.Hits != 0 {
		t.Fatalf("snapshot = %+v, want no entries and no hits", snap)
	}
}

// TestPanicLeavesNoEntry: a backend panic propagates through the cache
// and leaves no entry behind, so the next call evaluates afresh.
func TestPanicLeavesNoEntry(t *testing.T) {
	first := true
	fake := &fakeEval{fn: func() (maestro.Cost, error) {
		if first {
			first = false
			panic("backend crash")
		}
		return maestro.Cost{DelayCycles: 2}, nil
	}}
	pipe := Chain(fake, WithCache())
	tr := randomTriples(4, 1)[0]

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate through the cache")
			}
		}()
		pipe.Evaluate(tr.a, tr.s, tr.l)
	}()
	if snap := pipe.Cache().Snapshot(); snap.Entries != 0 {
		t.Fatalf("snapshot %+v after a panic, want no entries", snap)
	}

	cost, err := pipe.Evaluate(tr.a, tr.s, tr.l)
	if err != nil || cost.DelayCycles != 2 {
		t.Fatalf("post-panic Evaluate = %+v, %v", cost, err)
	}
	if got := fake.calls.Load(); got != 2 {
		t.Fatalf("inner evaluator called %d times, want 2", got)
	}
	if snap := pipe.Cache().Snapshot(); snap.Entries != 1 {
		t.Fatalf("snapshot %+v, want the re-evaluated entry", snap)
	}
}

func TestCanonicalKeyIgnoresRepeat(t *testing.T) {
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{DelayCycles: 3}, nil }}
	pipe := Chain(fake, WithCache())
	tr := randomTriples(5, 1)[0]

	tr.l.Repeat = 1
	pipe.Evaluate(tr.a, tr.s, tr.l)
	tr.l.Repeat = 16
	pipe.Evaluate(tr.a, tr.s, tr.l)
	if got := fake.calls.Load(); got != 1 {
		t.Fatalf("Repeat-only variants evaluated %d times, want 1 shared entry", got)
	}

	// Any other dimension change is a different key.
	tr.l.K++
	pipe.Evaluate(tr.a, tr.s, tr.l)
	if got := fake.calls.Load(); got != 2 {
		t.Fatalf("distinct layer reused a stale entry (calls=%d)", got)
	}
}

// TestUnpackableScheduleBypassesCache: a schedule whose tiles do not fit
// int32 or whose dimensions do not fit uint8 has no packed key, so the
// cache passes it to the backend every time, counts it as a miss and
// never memoizes it — alone or mixed into a batch with packable items.
func TestUnpackableScheduleBypassesCache(t *testing.T) {
	a, s, l := validTriple(t, maestro.New())
	bigT2, smallT1, dim300, negDim, unroll := s, s, s, s, s
	bigT2.T2[0] = math.MaxInt32 + 1
	smallT1.T1[3] = math.MinInt32 - 1
	dim300.OuterOrder[2] = 300
	negDim.InnerOrder[5] = -1
	unroll.InnerUnroll = 256
	odd := []sched.Schedule{bigT2, smallT1, dim300, negDim, unroll}

	bare := maestro.New()
	counter := &countingEval{}
	pipe := Chain(counter, WithCache())
	for round := 0; round < 2; round++ {
		for i, u := range odd {
			var want result
			want.cost, want.err = bare.Evaluate(a, u, l)
			cost, err := pipe.Evaluate(a, u, l)
			if err := sameResult(cost, err, want); err != nil {
				t.Fatalf("round %d, schedule %d: %v", round, i, err)
			}
		}
		// The same schedules beside a packable one, in one batch.
		batch := append([]sched.Schedule{s}, odd...)
		costs, errs := pipe.EvaluateBatch(a, batch, l)
		for i, u := range batch {
			var want result
			want.cost, want.err = bare.Evaluate(a, u, l)
			if err := sameResult(costs[i], errs[i], want); err != nil {
				t.Fatalf("round %d, batch item %d: %v", round, i, err)
			}
		}
	}
	// 2 rounds × 2 passes × 5 unpackable items, plus the packable one's
	// single miss; its second round is a hit.
	if got := counter.items.Load(); got != 21 {
		t.Fatalf("backend evaluated %d items, want 21", got)
	}
	if snap := pipe.Cache().Snapshot(); snap.Misses != 21 || snap.Hits != 1 || snap.Entries != 1 {
		t.Fatalf("snapshot %+v, want 21 misses, 1 hit, 1 entry", snap)
	}
}

// TestContextIdentityIsExact: the context is the full accelerator and
// layer, so layers that differ only in Name and accelerators that differ
// in any one field get entries of their own, while Repeat-only variants
// share one. Every answer matches the bare backend.
func TestContextIdentityIsExact(t *testing.T) {
	a, s, l := validTriple(t, maestro.New())
	renamed := l
	renamed.Name += "-twin"
	repeated := l
	repeated.Repeat += 7
	type point struct {
		a hw.Accel
		l workload.Layer
	}
	points := []point{{a, l}, {a, renamed}}
	for f := 0; f < reflect.TypeOf(a).NumField(); f++ {
		b := a
		v := reflect.ValueOf(&b).Elem().Field(f)
		v.SetInt(v.Int() * 2)
		points = append(points, point{b, l})
	}
	distinct := int64(len(points))
	points = append(points, point{a, repeated}) // shares {a, l}'s entry

	bare := maestro.New()
	counter := &countingEval{}
	pipe := Chain(counter, WithCache())
	for round := 0; round < 2; round++ {
		for i, p := range points {
			var want result
			want.cost, want.err = bare.Evaluate(p.a, s, p.l)
			cost, err := pipe.Evaluate(p.a, s, p.l)
			if err := sameResult(cost, err, want); err != nil {
				t.Fatalf("round %d, point %d: %v", round, i, err)
			}
		}
	}
	if got := counter.items.Load(); got != distinct {
		t.Fatalf("backend evaluated %d items, want %d (one per distinct context)", got, distinct)
	}
	if snap := pipe.Cache().Snapshot(); snap.Misses != distinct || snap.Entries != distinct {
		t.Fatalf("snapshot %+v, want %d misses and entries", snap, distinct)
	}
}

// gatedEval blocks its first evaluation until the gate opens and then
// ends it with outcome; every later evaluation returns DelayCycles 9 at
// once. entered is closed when the first evaluation starts. Unlike a
// real backend it answers one key two ways, so a test can tell which
// copy of a result the cache kept.
type gatedEval struct {
	calls   atomic.Int64
	entered chan struct{}
	gate    chan struct{}
	outcome func() (maestro.Cost, error)
}

func (g *gatedEval) Name() string { return "gated" }

func (g *gatedEval) Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error) {
	if g.calls.Add(1) == 1 {
		close(g.entered)
		<-g.gate
		return g.outcome()
	}
	return maestro.Cost{DelayCycles: 9}, nil
}

// TestConcurrentDoubleMissFirstPublishWins: a first caller misses a key
// and stays inside the backend while a second misses it too and
// publishes DelayCycles 9. However the first then ends — with another
// cost, a transient error or a panic — the first-published entry stays,
// and a later hit returns it. Inner call and counter totals are exact;
// a caller that panicked counts no miss.
func TestConcurrentDoubleMissFirstPublishWins(t *testing.T) {
	cases := []struct {
		name                 string
		outcome              func() (maestro.Cost, error)
		firstOK, firstPanics bool
		misses               int64
	}{
		{name: "publish", outcome: func() (maestro.Cost, error) { return maestro.Cost{DelayCycles: 1}, nil },
			firstOK: true, misses: 2},
		{name: "transient", outcome: func() (maestro.Cost, error) { return maestro.Cost{}, errors.New("transient fault") },
			misses: 2},
		{name: "panic", outcome: func() (maestro.Cost, error) { panic("backend crash") },
			firstPanics: true, misses: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &gatedEval{entered: make(chan struct{}), gate: make(chan struct{}), outcome: tc.outcome}
			pipe := Chain(g, WithCache())
			tr := randomTriples(31, 1)[0]

			first := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						first <- fmt.Errorf("panic: %v", r)
					}
				}()
				_, err := pipe.Evaluate(tr.a, tr.s, tr.l)
				first <- err
			}()
			<-g.entered
			if cost, err := pipe.Evaluate(tr.a, tr.s, tr.l); err != nil || cost.DelayCycles != 9 {
				t.Fatalf("second caller got (%+v, %v), want DelayCycles 9", cost, err)
			}
			close(g.gate)

			ferr := <-first
			if got := ferr != nil && strings.HasPrefix(ferr.Error(), "panic:"); got != tc.firstPanics {
				t.Fatalf("first caller ended with %v, panic expected: %v", ferr, tc.firstPanics)
			}
			if (ferr == nil) != tc.firstOK {
				t.Fatalf("first caller error %v, success expected: %v", ferr, tc.firstOK)
			}
			if cost, err := pipe.Evaluate(tr.a, tr.s, tr.l); err != nil || cost.DelayCycles != 9 {
				t.Fatalf("hit got (%+v, %v), want the first-published DelayCycles 9", cost, err)
			}
			if got := g.calls.Load(); got != 2 {
				t.Fatalf("backend called %d times, want 2", got)
			}
			want := CacheSnapshot{Hits: 1, Misses: tc.misses, Entries: 1}
			if snap := pipe.Cache().Snapshot(); snap != want {
				t.Fatalf("snapshot %+v, want %+v", snap, want)
			}
		})
	}
}
