package maestro

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// batchCandidates builds a schedule mix like the one a real software
// search produces: mostly constraint-sampled schedules (valid or
// capacity-invalid), salted with structurally corrupt ones.
func batchCandidates(rng *rand.Rand, a hw.Accel, l workload.Layer, n int) []sched.Schedule {
	ss := make([]sched.Schedule, n)
	free := sched.Free()
	for i := range ss {
		ss[i] = free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		switch i % 7 {
		case 3: // tile does not divide the dimension
			ss[i].T2[workload.DimK] = l.K + 1
		case 5: // broken permutation
			ss[i].InnerOrder[0] = ss[i].InnerOrder[1]
		case 6: // unroll out of range
			ss[i].OuterUnroll = workload.Dim(workload.NumDims)
		}
	}
	return ss
}

// errStale marks result slots EvaluateTo must overwrite.
var errStale = errors.New("stale result slot")

// evaluateBatch runs EvaluateTo into result slices that hold stale
// values, as reused caller-owned scratch does, so a slot EvaluateTo
// leaves unwritten shows up as a mismatch.
func evaluateBatch(m *Model, a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]Cost, []error) {
	costs := make([]Cost, len(ss))
	errs := make([]error, len(ss))
	for i := range ss {
		costs[i], errs[i] = Cost{DelayCycles: -1}, errStale
	}
	m.EvaluateTo(a, ss, l, costs, errs)
	return costs, errs
}

// assertBatchMatchesSequential is the core equivalence check: every
// batched (cost, err) pair must be bitwise identical to the one-schedule
// Evaluate result — identical float bits in every cost field, identical
// error strings, identical errors.Is(err, ErrInvalid) classification.
func assertBatchMatchesSequential(t *testing.T, m *Model, a hw.Accel, ss []sched.Schedule, l workload.Layer) {
	t.Helper()
	costs, errs := evaluateBatch(m, a, ss, l)
	for i := range ss {
		wantCost, wantErr := m.Evaluate(a, ss[i], l)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("schedule %d: batch err=%v, sequential err=%v", i, errs[i], wantErr)
		}
		if wantErr != nil {
			if errs[i].Error() != wantErr.Error() {
				t.Fatalf("schedule %d: error strings differ:\nbatch:      %q\nsequential: %q",
					i, errs[i].Error(), wantErr.Error())
			}
			if errors.Is(errs[i], ErrInvalid) != errors.Is(wantErr, ErrInvalid) {
				t.Fatalf("schedule %d: ErrInvalid classification differs", i)
			}
			continue
		}
		if costs[i] != wantCost {
			t.Fatalf("schedule %d: costs differ:\nbatch:      %+v\nsequential: %+v",
				i, costs[i], wantCost)
		}
	}
}

func TestEvaluateBatchMatchesSequential(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(61))
	space := hw.EdgeSpace()
	layers := []workload.Layer{
		testLayer(),
		workload.Conv("wide", 1, 128, 64, 1, 1, 14, 14),
		workload.FromGEMM("gemm", 512, 64, 196),
		workload.FromDepthwise("dw", 32, 3, 3, 28, 28, 1),
	}
	for trial := 0; trial < 8; trial++ {
		a := space.Random(rng)
		l := layers[trial%len(layers)]
		assertBatchMatchesSequential(t, m, a, batchCandidates(rng, a, l, 64), l)
	}
}

func TestEvaluateBatchInvalidAccelAndLayer(t *testing.T) {
	m := New()
	l := testLayer()
	ss := batchCandidates(rand.New(rand.NewSource(7)), testAccel(), l, 8)

	badAccel := testAccel()
	badAccel.PEs = 0
	assertBatchMatchesSequential(t, m, badAccel, ss, l)

	badLayer := l
	badLayer.K = -1
	assertBatchMatchesSequential(t, m, testAccel(), ss, badLayer)
}

func TestEvaluateBatchEmptyAndSingle(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	m.EvaluateTo(a, nil, l, nil, nil) // touches no result slot
	assertBatchMatchesSequential(t, m, a, []sched.Schedule{fittedSchedule(a, l)}, l)
}

// TestEvaluateBatchConcurrent races 8 workers over batches against the
// one shared Model, each checking bitwise equivalence against its own
// sequential replay — EvaluateTo must be as concurrency-safe as
// Evaluate.
func TestEvaluateBatchConcurrent(t *testing.T) {
	m := New()
	space := hw.EdgeSpace()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for trial := 0; trial < 6; trial++ {
				a := space.Random(rng)
				l := workload.Conv("race", 1, 32+w, 16, 3, 3, 14, 14)
				assertBatchMatchesSequential(t, m, a, batchCandidates(rng, a, l, 32), l)
			}
		}(w)
	}
	wg.Wait()
}

// TestTripCountsMatchesValidate pins the fused fast path to the slow
// one: for random (and corrupted) schedules, TripCounts must say ok
// exactly when Validate returns nil, and on ok its trip counts must
// equal OuterTrips/InnerTrips.
func TestTripCountsMatchesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := testAccel()
	l := testLayer()
	sizes := l.Sizes()
	for _, s := range batchCandidates(rng, a, l, 256) {
		n2, n1, ok := s.TripCounts(&sizes)
		if wantOK := s.Validate(l) == nil; ok != wantOK {
			t.Fatalf("TripCounts ok=%v, Validate ok=%v for %s", ok, wantOK, s)
		}
		if !ok {
			continue
		}
		if n2 != s.OuterTrips(l) || n1 != s.InnerTrips(l) {
			t.Fatalf("trip counts diverge for %s", s)
		}
	}
	var zero sched.Schedule
	if _, _, ok := zero.TripCounts(&sizes); ok {
		t.Fatal("zero schedule reported valid")
	}
}

// FuzzEvaluateBatch pairs whole batches with batches of one on fuzzed
// layer shapes and seeded-random schedule mixes.
func FuzzEvaluateBatch(f *testing.F) {
	f.Add(int64(1), 16, 8, 3, 12)
	f.Add(int64(2), 64, 32, 1, 8)
	f.Add(int64(3), 1, 1, 1, 1)
	f.Fuzz(func(t *testing.T, seed int64, k, c, rs, xy int) {
		k = bound(k, 1, 256)
		c = bound(c, 1, 256)
		rs = bound(rs, 1, 7)
		xy = bound(xy, rs, 64)
		l := workload.Conv("fuzz", 1, k, c, rs, rs, xy, xy)
		if l.Validate() != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := hw.EdgeSpace().Random(rng)
		m := New()
		ss := batchCandidates(rng, a, l, 16)
		assertBatchMatchesSequential(t, m, a, ss, l)

		costs, errs := evaluateBatch(m, a, ss, l)
		for i := range ss {
			if errs[i] != nil {
				continue
			}
			if !costs[i].Finite() || costs[i].DelayCycles <= 0 {
				t.Fatalf("schedule %d: non-finite or non-positive batched cost: %+v", i, costs[i])
			}
			if math.IsNaN(costs[i].EDP()) {
				t.Fatalf("schedule %d: NaN EDP", i)
			}
		}
	})
}
