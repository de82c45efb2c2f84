package timeloop

import (
	"errors"
	"math/rand"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

func testAccel() hw.Accel {
	return hw.Accel{PEs: 168, Width: 14, SIMDLanes: 2, RFKB: 80, L2KB: 128, NoCBW: 64}
}

func testLayer() workload.Layer {
	return workload.Conv("t", 1, 64, 32, 3, 3, 18, 18)
}

func fittedSchedule(a hw.Accel, l workload.Layer) sched.Schedule {
	var s sched.Schedule
	// Quarter budgets leave room for this model's double buffering.
	s.T1, s.T2 = sched.FitTiles(l, a.RFBytesPerPE()/4, a.L2Bytes()/4)
	s.OuterOrder = sched.CanonicalOrder()
	s.InnerOrder = sched.CanonicalOrder()
	s.OuterUnroll = workload.DimK
	s.InnerUnroll = workload.DimC
	return s
}

func TestEvaluateValid(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	c, err := m.Evaluate(a, fittedSchedule(a, l), l)
	if err != nil {
		t.Fatalf("evaluate failed: %v", err)
	}
	if c.DelayCycles <= 0 || c.EnergyNJ <= 0 {
		t.Fatalf("non-positive cost: %+v", c)
	}
	if c.Utilization <= 0 || c.Utilization > 1 {
		t.Fatalf("utilization out of range: %v", c.Utilization)
	}
}

func TestDoubleBufferingShrinksFeasibleRegion(t *testing.T) {
	// A schedule that exactly fills the RF fits the primary model but
	// not this one (which double-buffers).
	a := testAccel()
	l := testLayer()
	var s sched.Schedule
	s.T1, s.T2 = sched.FitTiles(l, a.RFBytesPerPE(), a.L2Bytes()/4)
	s.OuterOrder = sched.CanonicalOrder()
	s.InnerOrder = sched.CanonicalOrder()
	s.OuterUnroll, s.InnerUnroll = workload.DimK, workload.DimC

	if _, err := maestro.New().Evaluate(a, s, l); err != nil {
		t.Fatalf("primary model rejected the fitted schedule: %v", err)
	}
	need := 2 * sched.TileFootprint(l, s.T1)
	if need <= a.RFBytesPerPE() {
		t.Skip("fitted tile too small to expose double buffering")
	}
	if _, err := New().Evaluate(a, s, l); !errors.Is(err, maestro.ErrInvalid) {
		t.Fatalf("expected double-buffer rejection, got %v", err)
	}
}

func TestRejectsInvalidInputs(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	s := fittedSchedule(a, l)
	badA := a
	badA.Width = 13
	if _, err := m.Evaluate(badA, s, l); !errors.Is(err, maestro.ErrInvalid) {
		t.Fatal("invalid accel accepted")
	}
	badS := s
	badS.T1[0] = 0
	if _, err := m.Evaluate(a, badS, l); !errors.Is(err, maestro.ErrInvalid) {
		t.Fatal("invalid schedule accepted")
	}
}

func TestDelayIsAdditive(t *testing.T) {
	// Unlike the primary model's roofline max, delay here must exceed
	// compute cycles whenever there is any traffic.
	m := New()
	a := testAccel()
	l := testLayer()
	c, err := m.Evaluate(a, fittedSchedule(a, l), l)
	if err != nil {
		t.Fatal(err)
	}
	if c.DelayCycles <= c.ComputeCycles {
		t.Fatalf("delay %v not strictly above compute %v", c.DelayCycles, c.ComputeCycles)
	}
}

func TestModelsDisagreeButCorrelate(t *testing.T) {
	// The two analytical models should rank many random designs
	// differently (they embody different assumptions) while remaining
	// positively correlated overall — the premise of §VII-F.
	primary := maestro.New()
	second := New()
	a := testAccel()
	l := testLayer()
	rng := rand.New(rand.NewSource(42))
	con := sched.Free()

	var dp, ds []float64
	for len(dp) < 120 {
		s := con.Random(rng, l, a.RFBytesPerPE()/4, a.L2Bytes()/4)
		cp, err1 := primary.Evaluate(a, s, l)
		cs, err2 := second.Evaluate(a, s, l)
		if err1 != nil || err2 != nil {
			continue
		}
		dp = append(dp, cp.EDP())
		ds = append(ds, cs.EDP())
	}
	var identical int
	for i := range dp {
		if dp[i] == ds[i] {
			identical++
		}
	}
	if identical > len(dp)/10 {
		t.Fatalf("models produce identical EDPs on %d/%d designs — not independent", identical, len(dp))
	}
}

func TestName(t *testing.T) {
	if New().Name() != "timeloop" {
		t.Fatal("unexpected name")
	}
}

// TestUnrolledTilesCountedOnce pins the on-chip traffic of one unrolled
// dimension: K=8 with every other extent 1, K's L2-level loop unrolled
// over 8 rows. One temporal step sends the 1 B weight tile to each of
// the 8 rows, multicasts the 1 B input tile once, and reads and writes
// back the 1 B output tile of each row: 8 + 1 + 2·8 = 25 B. The primary
// model charges the outputs once (17 B).
func TestUnrolledTilesCountedOnce(t *testing.T) {
	a := testAccel()
	l := workload.Conv("k8", 1, 8, 1, 1, 1, 1, 1)
	var s sched.Schedule
	for i := range workload.AllDims {
		s.T1[i], s.T2[i] = 1, l.Size(workload.AllDims[i])
	}
	s.OuterOrder, s.InnerOrder = sched.CanonicalOrder(), sched.CanonicalOrder()
	s.OuterUnroll, s.InnerUnroll = workload.DimK, workload.DimC
	c, err := New().Evaluate(a, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if c.NoCBytes != 25 {
		t.Errorf("timeloop NoCBytes = %v, want 25", c.NoCBytes)
	}
	pc, err := maestro.New().Evaluate(a, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if pc.NoCBytes != 17 {
		t.Errorf("maestro NoCBytes = %v, want 17", pc.NoCBytes)
	}
}
