package eval

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/resilience"
	"spotlight/internal/workload"
)

func TestPersistCodecRoundTrip(t *testing.T) {
	// Every float round-trips bitwise, non-finite values included.
	cost := maestro.Cost{
		DelayCycles: math.Inf(1),
		EnergyNJ:    math.NaN(),
		AreaMM2:     -0.0,
		Utilization: 0.87,
	}
	val, ok := appendResult(nil, cost, nil)
	if !ok {
		t.Fatal("ok result not persistable")
	}
	got, verdict, ok := decodeResult(val)
	if !ok || verdict != nil {
		t.Fatalf("decodeResult = %v, %v", verdict, ok)
	}
	for i, pair := range [][2]float64{
		{got.DelayCycles, cost.DelayCycles},
		{got.EnergyNJ, cost.EnergyNJ},
		{got.AreaMM2, cost.AreaMM2},
		{got.Utilization, cost.Utilization},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("field %d: bits %x != %x", i, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
		}
	}

	// An infeasibility verdict keeps its exact wording and still
	// classifies as invalid for every outcome-aware layer.
	inv := fmt.Errorf("PE array underutilized: %w", maestro.ErrInvalid)
	val, ok = appendResult(nil, maestro.Cost{}, inv)
	if !ok {
		t.Fatal("invalid verdict not persistable")
	}
	_, verdict, ok = decodeResult(val)
	if !ok || verdict == nil {
		t.Fatalf("decodeResult = %v, %v", verdict, ok)
	}
	if verdict.Error() != inv.Error() {
		t.Fatalf("verdict text %q != %q", verdict.Error(), inv.Error())
	}
	if !errors.Is(verdict, maestro.ErrInvalid) || Outcome(verdict) != OutcomeInvalid {
		t.Fatalf("decoded verdict classifies as %q", Outcome(verdict))
	}

	// Transient faults are never persisted — the cache contract.
	if v, ok := appendResult(nil, maestro.Cost{}, errors.New("timeout")); ok {
		t.Fatalf("transient fault persisted as %x", v)
	}
}

func TestPersistCodecRejectsCorruptValues(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{},
		{persistOK},                // truncated payload
		{persistOK, 1, 2, 3},       // short of costFloats
		{42, 0, 0},                 // unknown outcome byte (a future codec)
		make([]byte, 8*costFloats), // reads as persistOK but one byte short
	} {
		if _, _, ok := decodeResult(b); ok {
			t.Fatalf("decodeResult(%x) accepted a corrupt value", b)
		}
	}
}

// TestCostFloatsMatchesStruct pins the codec to maestro.Cost by
// reflection: every field must be a float64 and the count must equal
// costFloats, so adding a Cost field fails here until the codec (and
// the model fingerprints) are updated.
func TestCostFloatsMatchesStruct(t *testing.T) {
	rt := reflect.TypeOf(maestro.Cost{})
	if rt.NumField() != costFloats {
		t.Fatalf("maestro.Cost has %d fields, codec persists %d: extend encodeCost/decodeCost and bump the backend cost-model fingerprints", rt.NumField(), costFloats)
	}
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() != reflect.Float64 {
			t.Fatalf("maestro.Cost.%s is %s, codec assumes float64", f.Name, f.Type)
		}
	}

	// Every field round-trips: give each a distinct value via reflection
	// and require the decoded struct to match exactly. A field missing
	// from encodeCost or decodeCost shows up as a zero here.
	var cost maestro.Cost
	cv := reflect.ValueOf(&cost).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetFloat(float64(i + 1))
	}
	got := decodeCost(encodeCost(nil, cost))
	if got != cost {
		t.Fatalf("decode(encode(cost)) = %+v, want %+v", got, cost)
	}
}

func TestDiskHitSkipsInner(t *testing.T) {
	a, s, l := validTriple(t, maestro.New())
	want, _ := maestro.New().Evaluate(a, s, l)
	path := filepath.Join(t.TempDir(), "maestro.journal")

	inner := &fakeEval{fn: func() (maestro.Cost, error) { return want, nil }}
	mw := WithDisk(DiskOptions{Path: path, Backend: "maestro", Fingerprint: "fp-v1"})
	pipe := Chain(inner, mw)
	d := pipe.Disk()
	if d.OpenErr() != nil {
		t.Fatalf("OpenErr: %v", d.OpenErr())
	}
	if _, err := pipe.Evaluate(a, s, l); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Evaluate(a, s, l); err != nil {
		t.Fatal(err)
	}
	if n := inner.calls.Load(); n != 1 {
		t.Fatalf("inner saw %d calls, want 1 (second was a disk hit)", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh layer over the same journal starts warm.
	inner2 := &fakeEval{fn: func() (maestro.Cost, error) { return want, nil }}
	pipe2 := Chain(inner2, mw)
	defer pipe2.Close()
	got, err := pipe2.Evaluate(a, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if inner2.calls.Load() != 0 {
		t.Fatal("warm journal did not serve the hit")
	}
	if math.Float64bits(got.DelayCycles) != math.Float64bits(want.DelayCycles) ||
		math.Float64bits(got.EnergyNJ) != math.Float64bits(want.EnergyNJ) {
		t.Fatalf("warm cost %+v != %+v", got, want)
	}
}

// smallRun is the shared fig6-shaped search for the persistence bit-
// identity tests, mirroring TestUncachedPipelineHistoryBitIdentical.
func smallRun(t *testing.T, ev core.Evaluator, workers int) core.Result {
	t.Helper()
	m, err := workload.ByName("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	m.Layers = m.Layers[:3]
	res, err := core.Run(core.RunConfig{
		Models:    []workload.Model{m},
		HWSamples: 5,
		SWSamples: 5,
		Seed:      7,
		Eval:      ev,
		Workers:   workers,
	}, core.NewSpotlight())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func requireSameHistory(t *testing.T, label string, ref, got core.Result) {
	t.Helper()
	if len(got.History) != len(ref.History) {
		t.Fatalf("%s: history length %d != %d", label, len(got.History), len(ref.History))
	}
	for i := range ref.History {
		r, g := ref.History[i], got.History[i]
		if g.Sample != r.Sample ||
			math.Float64bits(g.Value) != math.Float64bits(r.Value) ||
			math.Float64bits(g.BestSoFar) != math.Float64bits(r.BestSoFar) {
			t.Fatalf("%s: history[%d] = %+v, want %+v", label, i, g, r)
		}
	}
	if math.Float64bits(got.Best.Objective) != math.Float64bits(ref.Best.Objective) {
		t.Fatalf("%s: best objective %v != %v", label, got.Best.Objective, ref.Best.Objective)
	}
}

// TestPersistentCacheHistoryBitIdentical is the tentpole acceptance
// test: cold, warm, and crash-recovered runs over one cache directory
// produce a History bit-identical to the bare backend's, at any worker
// count — the disk layer accelerates, it never perturbs.
func TestPersistentCacheHistoryBitIdentical(t *testing.T) {
	ref := smallRun(t, maestro.New(), 1)

	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		mk := func() *Pipeline {
			return MustFromSpec("maestro,cache", SpecOptions{CacheDir: dir})
		}

		cold := mk()
		requireSameHistory(t, fmt.Sprintf("cold/workers=%d", workers), ref, smallRun(t, cold, workers))
		coldEvals := cold.Stats().Snapshot().Evals
		if coldEvals == 0 {
			t.Fatal("cold run did no backend work")
		}
		if snap := cold.Disk().Store().Snapshot(); snap.Puts == 0 {
			t.Fatalf("cold run persisted nothing: %+v", snap)
		}
		if err := cold.Close(); err != nil {
			t.Fatalf("cold Close: %v", err)
		}

		warm := mk()
		requireSameHistory(t, fmt.Sprintf("warm/workers=%d", workers), ref, smallRun(t, warm, workers))
		if n := warm.Stats().Snapshot().Evals; n != 0 {
			t.Fatalf("warm run reached the backend %d times, want 0", n)
		}
		snap := warm.Disk().Store().Snapshot()
		if snap.Hits == 0 {
			t.Fatalf("warm run had no disk hits: %+v", snap)
		}
		// Acceptance: the warm hit rate is no worse than the in-memory
		// cache's on the identical repeated run — every unique evaluation
		// is served from disk, so misses stay at zero.
		if snap.Misses != 0 {
			t.Fatalf("warm run missed %d times, want 0: %+v", snap.Misses, snap)
		}
		if err := warm.Close(); err != nil {
			t.Fatalf("warm Close: %v", err)
		}

		// Crash: tear the last record off the journal. The recovered run
		// must still be bit-identical — the torn entry is recomputed.
		journal := filepath.Join(dir, "maestro.journal")
		info, err := os.Stat(journal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(journal, info.Size()-7); err != nil {
			t.Fatal(err)
		}
		rec := mk()
		recSnap := rec.Disk().Store().Snapshot()
		if recSnap.DroppedBytes == 0 || recSnap.Recovered == 0 {
			t.Fatalf("torn journal not detected: %+v", recSnap)
		}
		requireSameHistory(t, fmt.Sprintf("recovered/workers=%d", workers), ref, smallRun(t, rec, workers))
		if n := rec.Stats().Snapshot().Evals; n == 0 || n >= coldEvals {
			t.Fatalf("recovered run did %d backend evals, want >0 and < cold's %d", n, coldEvals)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("recovered Close: %v", err)
		}
	}
}

// TestPersistDegradationObserveOnly injects a byte-budget write fault
// under a full search: the search must complete bit-identically on the
// in-memory path with exactly one degradation event in the trace.
func TestPersistDegradationObserveOnly(t *testing.T) {
	ref := smallRun(t, maestro.New(), 1)
	rec := &recordingTracer{}
	m := maestro.New()
	p := chain(rec, m, WithDisk(DiskOptions{
		Dir:         t.TempDir(),
		Backend:     m.Name(),
		Fingerprint: BackendFingerprint(m),
		Tracer:      rec,
		Fault:       resilience.NewFileFault(512, errors.New("injected ENOSPC")),
	}), WithCache())
	defer p.Close()
	requireSameHistory(t, "degraded", ref, smallRun(t, p, 3))
	if snap := p.Disk().Store().Snapshot(); !snap.Degraded {
		t.Fatalf("fault never degraded the store: %+v", snap)
	}

	degraded := 0
	for _, e := range rec.events {
		if e.Type == obs.CachePersist && strings.HasPrefix(e.Detail, "degraded") {
			degraded++
		}
	}
	if degraded != 1 {
		t.Fatalf("saw %d degradation events, want exactly 1", degraded)
	}
}

// TestPersistOpenFailurePassThrough: an unusable cache path (its parent
// is a file) must not fail pipeline construction or evaluation — one
// degradation event, then pure pass-through.
func TestPersistOpenFailurePassThrough(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := &recordingTracer{}
	p, err := FromSpec("maestro,cache", SpecOptions{
		CacheDir: filepath.Join(blocker, "cache"),
		Tracer:   rec,
	})
	if err != nil {
		t.Fatalf("FromSpec failed on an unusable cache dir: %v", err)
	}
	defer p.Close()
	if p.Disk() == nil || p.Disk().OpenErr() == nil {
		t.Fatal("open failure not recorded on the layer")
	}
	a, s, l := validTriple(t, maestro.New())
	if _, err := p.Evaluate(a, s, l); err != nil {
		t.Fatalf("pass-through Evaluate: %v", err)
	}
	degraded := 0
	for _, e := range rec.events {
		if e.Type == obs.CachePersist && strings.HasPrefix(e.Detail, "degraded") {
			degraded++
		}
	}
	if degraded != 1 {
		t.Fatalf("saw %d degradation events, want exactly 1", degraded)
	}
}

// TestFromSpecDiskToken covers the explicit diskcache(path=...) spec
// form and its error cases.
func TestFromSpecDiskToken(t *testing.T) {
	path := filepath.Join(t.TempDir(), "explicit.journal")
	p := MustFromSpec("maestro,diskcache(path="+path+"),cache", SpecOptions{})
	defer p.Close()
	if p.Disk() == nil || p.Disk().Store() == nil {
		t.Fatal("diskcache token did not build a store")
	}
	if got := p.Disk().Store().Path(); got != path {
		t.Fatalf("journal path %q, want %q", got, path)
	}
	if p.Name() != "maestro" {
		t.Fatalf("Name() = %q: the disk layer must be name-transparent", p.Name())
	}

	if _, err := FromSpec("maestro,diskcache", SpecOptions{}); err == nil {
		t.Fatal("bare diskcache without CacheDir accepted")
	}
	if _, err := FromSpec("maestro,diskcache(path=)", SpecOptions{}); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := FromSpec("maestro,diskcache(file=x)", SpecOptions{}); err == nil {
		t.Fatal("malformed token accepted")
	}

	// A bare diskcache token with CacheDir set resolves to the derived
	// per-backend journal.
	dir := t.TempDir()
	p2 := MustFromSpec("maestro,diskcache,cache", SpecOptions{CacheDir: dir})
	defer p2.Close()
	if got, want := p2.Disk().Store().Path(), filepath.Join(dir, "maestro.journal"); got != want {
		t.Fatalf("derived journal path %q, want %q", got, want)
	}
}
