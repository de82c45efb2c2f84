package eval

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

func TestRegistryOpensBundledBackends(t *testing.T) {
	names := Backends()
	for _, want := range []string{"maestro", "sim", "timeloop"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Backends() = %v, missing %q", names, want)
		}
	}
	for _, n := range names {
		ev, err := Open(n)
		if err != nil {
			t.Fatalf("Open(%q): %v", n, err)
		}
		if ev.Name() == "" {
			t.Fatalf("Open(%q): backend has empty name", n)
		}
	}
}

func TestOpenUnknownBackendTypedError(t *testing.T) {
	_, err := Open("no-such-backend")
	if err == nil {
		t.Fatal("Open of unknown backend succeeded")
	}
	var unknown *UnknownBackendError
	if !errors.As(err, &unknown) {
		t.Fatalf("error is %T, want *UnknownBackendError", err)
	}
	if unknown.Name != "no-such-backend" {
		t.Fatalf("unknown.Name = %q", unknown.Name)
	}
	msg := err.Error()
	for _, want := range []string{"no-such-backend", "maestro", "sim", "timeloop"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
}

func TestRegisterRejectsBadRegistrations(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	factory := func() (core.Evaluator, error) { return maestro.New(), nil }
	mustPanic("empty name", func() { Register("", factory) })
	mustPanic("nil factory", func() { Register("test-nil-factory", nil) })
	Register("test-dup", factory)
	// The registry is process-wide: without this, a second run of the
	// test in the same process (go test -count=2) panics at the first
	// Register.
	t.Cleanup(func() {
		registryMu.Lock()
		delete(registry, "test-dup")
		registryMu.Unlock()
	})
	mustPanic("duplicate", func() { Register("test-dup", factory) })
}

func TestNameTransparency(t *testing.T) {
	// Trajectory-neutral layers pass the backend name through, so the
	// checkpoint fingerprint of a default pipeline matches a bare backend.
	p := MustFromSpec("maestro,cache,stats", SpecOptions{})
	if got := p.Name(); got != "maestro" {
		t.Fatalf("cached+statsed pipeline Name() = %q, want maestro", got)
	}
	// The guard can change what the search observes under faults, so it
	// stays visible in the name.
	g := MustFromSpec("maestro,guard", SpecOptions{})
	if got := g.Name(); got != "guard(maestro)" {
		t.Fatalf("guarded pipeline Name() = %q, want guard(maestro)", got)
	}
}

func TestChainSkipsNilMiddleware(t *testing.T) {
	p := Chain(maestro.New(), nil, WithCache(), nil)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Cache() == nil {
		t.Fatal("cache layer not retained")
	}
}

func TestValidate(t *testing.T) {
	var nilPipe *Pipeline
	if err := nilPipe.Validate(); err == nil {
		t.Fatal("nil pipeline validated")
	}
	if err := (&Pipeline{}).Validate(); err == nil {
		t.Fatal("empty pipeline validated")
	}
	if err := MustFromSpec("sim,cache,guard", SpecOptions{}).Validate(); err != nil {
		t.Fatalf("valid pipeline rejected: %v", err)
	}
}

// validTriple searches randomly for a design point the backend accepts.
func validTriple(t testing.TB, ev core.Evaluator) (hw.Accel, sched.Schedule, workload.Layer) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	space, free := hw.EdgeSpace(), sched.Free()
	m, err := workload.ByName("ResNet-50")
	if err != nil {
		t.Fatal(err)
	}
	l := m.Layers[0]
	for i := 0; i < 200; i++ {
		a := space.Random(rng)
		s := free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		if _, err := ev.Evaluate(a, s, l); err == nil {
			return a, s, l
		}
	}
	t.Fatal("no valid design point found in 200 random draws")
	return hw.Accel{}, sched.Schedule{}, workload.Layer{}
}

func TestChainWiresSimEventsIntoStats(t *testing.T) {
	p := MustFromSpec("sim", SpecOptions{})
	a, s, l := validTriple(t, maestro.New())
	if _, err := p.Evaluate(a, s, l); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	snap := p.Stats().Snapshot()
	if snap.Evals != 1 || snap.OK != 1 {
		t.Fatalf("snapshot = %+v, want one ok eval", snap)
	}
	total := int64(0)
	for _, n := range []string{"simulated", "fallback"} {
		total += snap.Events[n]
	}
	if total != 1 {
		t.Fatalf("events = %v, want exactly one simulated/fallback event", snap.Events)
	}
}

func TestReport(t *testing.T) {
	p := MustFromSpec("maestro,cache", SpecOptions{})
	a, s, l := validTriple(t, maestro.New())
	p.Evaluate(a, s, l)
	p.Evaluate(a, s, l)
	rep := p.Report()
	for _, want := range []string{"eval stats [maestro]:", "evals=1", "\neval cache: hits=1 misses=1 entries=1\n"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report %q missing %q", rep, want)
		}
	}
	// A bare chain still counts its backend work, and backend events
	// follow the counters in sorted name order.
	bare := Chain(maestro.New())
	bare.Evaluate(a, s, l)
	for _, name := range []string{"simulated", "fallback", "simulated"} {
		bare.Stats().Event(name)
	}
	want := "eval stats [maestro]: evals=1 ok=1 invalid=0 errors=0 avg="
	rep = bare.Report()
	if !strings.HasPrefix(rep, want) {
		t.Fatalf("bare report %q, want prefix %q", rep, want)
	}
	lines := strings.Split(rep, "\n")
	if len(lines) != 4 || lines[1] != "eval stats [maestro]: fallback=1" || lines[2] != "eval stats [maestro]: simulated=2" {
		t.Fatalf("bare report %q, want the counters then fallback=1, simulated=2", rep)
	}
}

// TestUncachedPipelineHistoryBitIdentical is the acceptance check that a
// pass-through pipeline perturbs nothing: the search History through an
// uncached pipeline is bit-identical to the bare backend's, at any
// worker count. (Elapsed is wall clock and inherently differs; the
// trajectory fields are compared bitwise.)
func TestUncachedPipelineHistoryBitIdentical(t *testing.T) {
	m, err := workload.ByName("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	m.Layers = m.Layers[:3]
	run := func(ev core.Evaluator, workers int) core.Result {
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
	ref := run(maestro.New(), 1)
	for _, workers := range []int{1, 3} {
		got := run(MustFromSpec("maestro", SpecOptions{}), workers)
		if len(got.History) != len(ref.History) {
			t.Fatalf("workers=%d: history length %d != %d", workers, len(got.History), len(ref.History))
		}
		for i := range ref.History {
			r, g := ref.History[i], got.History[i]
			if g.Sample != r.Sample ||
				math.Float64bits(g.Value) != math.Float64bits(r.Value) ||
				math.Float64bits(g.BestSoFar) != math.Float64bits(r.BestSoFar) {
				t.Fatalf("workers=%d: history[%d] = %+v, want %+v", workers, i, g, r)
			}
		}
		if math.Float64bits(got.Best.Objective) != math.Float64bits(ref.Best.Objective) {
			t.Fatalf("workers=%d: best objective %v != %v", workers, got.Best.Objective, ref.Best.Objective)
		}
	}
}
