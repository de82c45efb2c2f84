package maestro

import (
	"errors"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// verdictFixture is one accelerator and layer with a schedule of every
// kind: valid, structurally broken three ways, and overflowing each
// buffer. The scratchpad is shrunk to 16 KB so the full-layer L2 tile
// overflows it.
type verdictFixture struct {
	a                               hw.Accel
	l                               workload.Layer
	valid, t2, perm, unroll, rf, l2 sched.Schedule
	badAccel                        hw.Accel
	badLayer                        workload.Layer
}

func newVerdictFixture() verdictFixture {
	f := verdictFixture{a: testAccel(), l: testLayer()}
	f.a.L2KB = 16
	f.valid = fittedSchedule(f.a, f.l)
	f.t2 = f.valid
	f.t2.T2[workload.DimK] = f.l.K + 1
	f.perm = f.valid
	f.perm.InnerOrder[0] = f.perm.InnerOrder[1]
	f.unroll = f.valid
	f.unroll.OuterUnroll = workload.Dim(workload.NumDims)
	f.rf = fullSchedule(f.l)
	f.rf.T1 = f.rf.T2
	f.l2 = fullSchedule(f.l)
	f.badAccel = f.a
	f.badAccel.PEs = 0
	f.badLayer = f.l
	f.badLayer.K = -1
	return f
}

// Verdict texts recorded from the eagerly formatting Evaluate that
// preceded EvaluateTo. The disk journal stores this text, so it is a
// persisted format and must not drift.
const (
	wantAccel  = "maestro: invalid configuration: hw: non-positive parameter in PEs=0(0x14) SIMD=2 RF=80KB L2=16KB BW=64B/cy"
	wantLayer  = "maestro: invalid configuration: workload: layer \"t\" has a non-positive dimension: t[CONV N1 K-1 C32 R3 S3 X18 Y18 /1 x1]"
	wantT2     = "maestro: invalid configuration: sched: T2[K]=65 does not divide size 64"
	wantPerm   = "maestro: invalid configuration: sched: inner order [K K C R S X Y] is not a permutation"
	wantUnroll = "maestro: invalid configuration: sched: unroll dims out of range: Dim(7)/C"
	wantRF     = "maestro: invalid configuration: RF tile needs 45184 B, PE register file holds 487 B"
	wantL2     = "maestro: invalid configuration: L2 working set needs 45184 B, scratchpad holds 16384 B"
)

// checkVerdict asserts an invalid verdict's text and that ErrInvalid is
// the one error it wraps.
func checkVerdict(t *testing.T, what string, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: no error, want %q", what, want)
	}
	if got := err.Error(); got != want {
		t.Fatalf("%s: error text\ngot:  %q\nwant: %q", what, got, want)
	}
	if !errors.Is(err, ErrInvalid) || errors.Unwrap(err) != ErrInvalid {
		t.Fatalf("%s: %v does not wrap exactly ErrInvalid", what, err)
	}
}

func TestInvalidVerdictText(t *testing.T) {
	m := New()
	f := newVerdictFixture()
	cases := []struct {
		name string
		a    hw.Accel
		l    workload.Layer
		s    sched.Schedule
		want string
	}{
		{"accel", f.badAccel, f.l, f.valid, wantAccel},
		{"layer", f.a, f.badLayer, f.valid, wantLayer},
		{"t2", f.a, f.l, f.t2, wantT2},
		{"perm", f.a, f.l, f.perm, wantPerm},
		{"unroll", f.a, f.l, f.unroll, wantUnroll},
		{"rf", f.a, f.l, f.rf, wantRF},
		{"l2", f.a, f.l, f.l2, wantL2},
	}
	for _, c := range cases {
		cost, err := m.Evaluate(c.a, c.s, c.l)
		checkVerdict(t, "Evaluate "+c.name, err, c.want)
		if cost != (Cost{}) {
			t.Fatalf("Evaluate %s: invalid point has cost %+v", c.name, cost)
		}
	}

	// Every schedule kind in one mixed batch.
	ss := []sched.Schedule{f.valid, f.t2, f.rf, f.valid, f.perm, f.l2, f.unroll}
	want := []string{"", wantT2, wantRF, "", wantPerm, wantL2, wantUnroll}
	costs, errs := evaluateBatch(m, f.a, ss, f.l)
	for i := range ss {
		if want[i] == "" {
			if errs[i] != nil || costs[i].DelayCycles <= 0 {
				t.Fatalf("batch item %d: valid schedule got err=%v cost=%+v", i, errs[i], costs[i])
			}
			continue
		}
		checkVerdict(t, "EvaluateTo item "+ss[i].String(), errs[i], want[i])
		if costs[i] != (Cost{}) {
			t.Fatalf("batch item %d: invalid point has cost %+v", i, costs[i])
		}
	}

	// An invalid accelerator or layer fails every item with one verdict.
	for _, c := range cases[:2] {
		_, errs := evaluateBatch(m, c.a, ss, c.l)
		for i := range ss {
			checkVerdict(t, "EvaluateTo "+c.name, errs[i], c.want)
		}
	}
}

// TestEvaluateAllocs gates the cost of a verdict: a valid point
// allocates nothing and an invalid one exactly its error.
func TestEvaluateAllocs(t *testing.T) {
	m := New()
	f := newVerdictFixture()
	if n := testing.AllocsPerRun(100, func() { _, _ = m.Evaluate(f.a, f.valid, f.l) }); n != 0 {
		t.Errorf("valid Evaluate: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = m.Evaluate(f.a, f.rf, f.l) }); n != 1 {
		t.Errorf("capacity-invalid Evaluate: %v allocs, want 1", n)
	}
	ss := []sched.Schedule{f.valid, f.rf, f.valid, f.l2, f.t2, f.valid, f.perm}
	const invalid = 4
	costs := make([]Cost, len(ss))
	errs := make([]error, len(ss))
	if n := testing.AllocsPerRun(100, func() { m.EvaluateTo(f.a, ss, f.l, costs, errs) }); n != invalid {
		t.Errorf("EvaluateTo over %d invalid items: %v allocs, want %d", invalid, n, invalid)
	}
}
