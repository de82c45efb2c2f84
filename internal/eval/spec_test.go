package eval

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFromSpecUnknownBackend(t *testing.T) {
	_, err := FromSpec("no-such-backend,cache", SpecOptions{})
	var unknown *UnknownBackendError
	if !errors.As(err, &unknown) {
		t.Fatalf("error %v (%T), want *UnknownBackendError", err, err)
	}
}

func TestFromSpecRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{"", " ", "maestro,", "maestro,,cache", "maestro,turbo"} {
		if _, err := FromSpec(spec, SpecOptions{}); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
	if _, err := FromSpec("maestro,turbo", SpecOptions{}); !strings.Contains(err.Error(), "cache, diskcache(path=FILE), guard, stats") {
		t.Fatalf("unknown-middleware error %v does not list the valid tokens", err)
	}
}

func TestFromSpecLayerSelection(t *testing.T) {
	p := MustFromSpec("sim,cache,guard", SpecOptions{})
	if p.Cache() == nil {
		t.Fatal("cache layer missing")
	}
	if got := p.Name(); got != "guard(sim-hybrid)" {
		t.Fatalf("Name() = %q, want guard(sim-hybrid)", got)
	}
	if got := p.Stats().Snapshot().Backend; got != "sim-hybrid" {
		t.Fatalf("stats count %q, want the backend", got)
	}
}

// TestFromSpecStatsToken: "stats" still parses but adds no layer, so a
// spec with it and one without build the same pipeline — same name (and
// checkpoint fingerprint), same backend-work counters after the same
// calls, cache hits excluded either way.
func TestFromSpecStatsToken(t *testing.T) {
	with := MustFromSpec("maestro,cache,stats", SpecOptions{})
	without := MustFromSpec("maestro,cache", SpecOptions{})
	if with.Name() != without.Name() {
		t.Fatalf("Name() %q with the stats token, %q without", with.Name(), without.Name())
	}
	trs := randomTriples(41, 24)
	for _, p := range []*Pipeline{with, without} {
		for _, tr := range trs {
			p.Evaluate(tr.a, tr.s, tr.l)
		}
	}
	a, b := with.Stats().Snapshot(), without.Stats().Snapshot()
	a.Latency, b.Latency = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counters differ:\nwith stats:    %+v\nwithout stats: %+v", a, b)
	}
	if misses := with.Cache().Snapshot().Misses; a.Evals != misses || misses == int64(len(trs)) {
		t.Fatalf("stats counted %d evals, want the %d cache misses (of %d requests)", a.Evals, misses, len(trs))
	}
}

func TestFromSpecGuardAutoAppend(t *testing.T) {
	opts := SpecOptions{GuardTimeout: time.Second}
	// A guard timeout is honored even when the spec omits the guard...
	p := MustFromSpec("maestro", opts)
	if got := p.Name(); got != "guard(maestro)" {
		t.Fatalf("Name() = %q, want auto-appended guard", got)
	}
	// ...and not doubled when the spec already has one.
	p = MustFromSpec("maestro,guard", opts)
	if got := p.Name(); got != "guard(maestro)" {
		t.Fatalf("Name() = %q, guard appears doubled", got)
	}
	// No timeout adds nothing...
	p = MustFromSpec("maestro", SpecOptions{})
	if got := p.Name(); got != "maestro" {
		t.Fatalf("Name() = %q, want bare backend", got)
	}
	// ...and a negative one is refused rather than read as "none".
	if _, err := FromSpec("maestro,guard", SpecOptions{GuardTimeout: -time.Second}); err == nil {
		t.Fatal("negative guard timeout accepted")
	}
}

func TestMustFromSpecPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromSpec did not panic")
		}
	}()
	MustFromSpec("no-such-backend", SpecOptions{})
}
