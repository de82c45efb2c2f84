package maestro

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

func testAccel() hw.Accel {
	return hw.Accel{PEs: 168, Width: 14, SIMDLanes: 2, RFKB: 80, L2KB: 128, NoCBW: 64}
}

func testLayer() workload.Layer {
	return workload.Conv("t", 1, 64, 32, 3, 3, 18, 18) // 16x16 output
}

// fullSchedule returns a simple valid schedule: T2 = full dims, T1 = 1.
func fullSchedule(l workload.Layer) sched.Schedule {
	var s sched.Schedule
	for i, d := range workload.AllDims {
		s.T2[i] = l.Size(d)
		s.T1[i] = 1
	}
	s.OuterOrder = sched.CanonicalOrder()
	s.InnerOrder = sched.CanonicalOrder()
	s.OuterUnroll = workload.DimK
	s.InnerUnroll = workload.DimC
	return s
}

// fittedSchedule returns a schedule whose tiles fit the accelerator.
func fittedSchedule(a hw.Accel, l workload.Layer) sched.Schedule {
	s := fullSchedule(l)
	s.T1, s.T2 = sched.FitTiles(l, a.RFBytesPerPE(), a.L2Bytes()/4)
	return s
}

func TestEvaluateValidSchedule(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	c, err := m.Evaluate(a, fittedSchedule(a, l), l)
	if err != nil {
		t.Fatalf("evaluate failed: %v", err)
	}
	if c.DelayCycles <= 0 || c.EnergyNJ <= 0 || c.EDP() <= 0 {
		t.Fatalf("non-positive cost: %+v", c)
	}
	if c.Utilization <= 0 || c.Utilization > 1 {
		t.Fatalf("utilization out of range: %v", c.Utilization)
	}
	if c.AreaMM2 != a.AreaMM2() {
		t.Fatal("area mismatch")
	}
	if c.PowerMW <= 0 {
		t.Fatal("non-positive power")
	}
}

func TestEvaluateRejectsRFOverflow(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	s := fullSchedule(l)
	// T1 = full layer cannot fit in a per-PE register file.
	s.T1 = s.T2
	_, err := m.Evaluate(a, s, l)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("expected ErrInvalid for RF overflow, got %v", err)
	}
}

func TestEvaluateRejectsL2Overflow(t *testing.T) {
	m := New()
	a := testAccel()
	a.L2KB = 64
	// A big layer whose full-size T2 cannot fit in 64 KB.
	l := workload.Conv("big", 1, 512, 512, 3, 3, 30, 30)
	s := fullSchedule(l)
	_, err := m.Evaluate(a, s, l)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("expected ErrInvalid for L2 overflow, got %v", err)
	}
}

func TestEvaluateRejectsBadInputs(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	s := fittedSchedule(a, l)

	badA := a
	badA.Width = 13
	if _, err := m.Evaluate(badA, s, l); !errors.Is(err, ErrInvalid) {
		t.Fatal("invalid accel accepted")
	}
	badL := l
	badL.K = 0
	if _, err := m.Evaluate(a, s, badL); !errors.Is(err, ErrInvalid) {
		t.Fatal("invalid layer accepted")
	}
	badS := s
	badS.T2[0] = 7 // does not divide N=1
	if _, err := m.Evaluate(a, badS, l); !errors.Is(err, ErrInvalid) {
		t.Fatal("invalid schedule accepted")
	}
}

func TestComputeLowerBound(t *testing.T) {
	// Delay can never beat MACs / (PEs × SIMD).
	m := New()
	a := testAccel()
	l := testLayer()
	rng := rand.New(rand.NewSource(1))
	c := sched.Free()
	bound := float64(l.MACs()) / float64(a.PEs*a.SIMDLanes)
	for i := 0; i < 300; i++ {
		s := c.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		cost, err := m.Evaluate(a, s, l)
		if err != nil {
			continue
		}
		if cost.DelayCycles < bound {
			t.Fatalf("delay %v below roofline bound %v for %s", cost.DelayCycles, bound, s)
		}
	}
}

func TestDRAMTrafficLowerBound(t *testing.T) {
	// Every tensor must cross the DRAM boundary at least once.
	m := New()
	a := testAccel()
	l := testLayer()
	rng := rand.New(rand.NewSource(2))
	c := sched.Free()
	minBytes := float64(l.WeightElems() + l.OutputElems()) // input halo makes input bound fuzzy
	for i := 0; i < 300; i++ {
		s := c.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		cost, err := m.Evaluate(a, s, l)
		if err != nil {
			continue
		}
		if cost.DRAMBytes < minBytes {
			t.Fatalf("DRAM bytes %v below compulsory traffic %v", cost.DRAMBytes, minBytes)
		}
	}
}

func TestLoopOrderChangesTraffic(t *testing.T) {
	// Weight-stationary vs weight-thrashing outer orders must differ in
	// DRAM traffic when the weight tile is refetched across X iterations.
	m := New()
	a := testAccel()
	a.L2KB = 256
	l := workload.Conv("t", 1, 64, 64, 3, 3, 34, 34) // 32x32 out
	s := fullSchedule(l)
	// Tile X and K at L2 so outer loops have temporal trips > 1 even
	// after K is spatially unrolled across the 12 rows (64 K-tiles over
	// 12 rows leaves 6 temporal iterations).
	s.T2[workload.DimX] = 8
	s.T2[workload.DimK] = 1
	s.T1, _ = sched.FitTiles(l, a.RFBytesPerPE(), 1)
	s.T1[workload.DimK] = 1

	stationary := s // K outer, X inner: weights refetched only over K
	stationary.OuterOrder = [7]workload.Dim{workload.DimN, workload.DimK, workload.DimC,
		workload.DimR, workload.DimS, workload.DimX, workload.DimY}
	thrash := s // X outer of K: weights refetched per X iteration
	thrash.OuterOrder = [7]workload.Dim{workload.DimN, workload.DimX, workload.DimK,
		workload.DimC, workload.DimR, workload.DimS, workload.DimY}

	cs, err1 := m.Evaluate(a, stationary, l)
	ct, err2 := m.Evaluate(a, thrash, l)
	if err1 != nil || err2 != nil {
		t.Fatalf("evaluate failed: %v / %v", err1, err2)
	}
	// The two orders trade weight refetches against input refetches, so
	// the totals must differ — loop order is a real degree of freedom.
	if ct.DRAMBytes == cs.DRAMBytes {
		t.Fatalf("loop order had no traffic effect: both %v", cs.DRAMBytes)
	}
	// Keeping K outer (weight-stationary) refetches inputs once per K
	// iteration, so its input reuse at L2 must be no better than the
	// X-outer order that holds each input tile across all K.
	if cs.L2InputReuse > ct.L2InputReuse {
		t.Fatalf("K-outer input reuse %v exceeds X-outer %v", cs.L2InputReuse, ct.L2InputReuse)
	}
}

func TestUnrollDimAffectsUtilization(t *testing.T) {
	// Unrolling the batch dimension (size 1) wastes the whole array
	// relative to unrolling the 64-wide K dimension.
	m := New()
	a := testAccel()
	l := testLayer()
	s := fittedSchedule(a, l)
	s.T2[workload.DimK] = 4 // 16 outer K trips, plenty to unroll
	s.T2[workload.DimC] = 4
	s.T1[workload.DimK] = 1
	s.T1[workload.DimC] = 1

	good := s
	good.OuterUnroll, good.InnerUnroll = workload.DimK, workload.DimC
	bad := s
	bad.OuterUnroll, bad.InnerUnroll = workload.DimN, workload.DimN

	cg, err1 := m.Evaluate(a, good, l)
	cb, err2 := m.Evaluate(a, bad, l)
	if err1 != nil || err2 != nil {
		t.Fatalf("evaluate failed: %v / %v", err1, err2)
	}
	if cb.Utilization >= cg.Utilization {
		t.Fatalf("N-unroll utilization %v not below K/C-unroll %v", cb.Utilization, cg.Utilization)
	}
	if cb.DelayCycles <= cg.DelayCycles {
		t.Fatalf("N-unroll delay %v not above K/C-unroll %v", cb.DelayCycles, cg.DelayCycles)
	}
}

func TestSIMDSpeedsCompute(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	s := fittedSchedule(a, l)
	c1, err := m.Evaluate(a, s, l)
	if err != nil {
		t.Fatal(err)
	}
	a2 := a
	a2.SIMDLanes = 8
	c2, err := m.Evaluate(a2, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ComputeCycles >= c1.ComputeCycles {
		t.Fatalf("SIMD did not speed compute: %v vs %v", c2.ComputeCycles, c1.ComputeCycles)
	}
}

func TestMulticastSavesTraffic(t *testing.T) {
	// With inner unroll on K, the input tile (independent of K) is
	// multicast; with inner unroll on X it must be unicast per column.
	m := New()
	a := testAccel()
	l := testLayer()
	s := fittedSchedule(a, l)
	s.T2[workload.DimK] = 8
	s.T2[workload.DimX] = 2
	s.T1[workload.DimK] = 1
	s.T1[workload.DimX] = 1

	multicast := s
	multicast.InnerUnroll = workload.DimK
	unicast := s
	unicast.InnerUnroll = workload.DimX

	cm, err1 := m.Evaluate(a, multicast, l)
	cu, err2 := m.Evaluate(a, unicast, l)
	if err1 != nil || err2 != nil {
		t.Fatalf("evaluate failed: %v / %v", err1, err2)
	}
	// Same number of inner iterations is not guaranteed, but for input-
	// dominated tiles the unicast variant must move at least as much data
	// per delivered MAC. Compare input reuse instead of raw bytes.
	if cu.RFInputReuse > cm.RFInputReuse {
		t.Fatalf("unicast input reuse %v exceeds multicast %v", cu.RFInputReuse, cm.RFInputReuse)
	}
}

func TestFillsStationarityRule(t *testing.T) {
	order := [7]workload.Dim{workload.DimK, workload.DimC, workload.DimR,
		workload.DimS, workload.DimN, workload.DimX, workload.DimY}
	trips := [7]int{1, 4, 2, 1, 1, 8, 8} // N=1 K=4 C=2 R=1 S=1 X=8 Y=8
	// Weights depend on K,C,R,S; innermost dependent loop in this order
	// is C (R,S have trip 1), so fills = K*C = 8.
	if f := fills(&order, &trips, sched.TensorWeight); f != 8 {
		t.Fatalf("weight fills = %v, want 8", f)
	}
	// Outputs depend on N,K,X,Y; innermost dependent loop is Y, so every
	// loop above counts: 4*2*8*8 = 512.
	if f := fills(&order, &trips, sched.TensorOutput); f != 512 {
		t.Fatalf("output fills = %v, want 512", f)
	}
	// A tensor with no moving dependent loops is filled exactly once.
	if f := fills(&order, &[7]int{1, 1, 1, 1, 1, 1, 1}, sched.TensorInput); f != 1 {
		t.Fatalf("static fills = %v, want 1", f)
	}
}

func TestEDP(t *testing.T) {
	c := Cost{DelayCycles: 10, EnergyNJ: 5}
	if c.EDP() != 50 {
		t.Fatalf("EDP = %v, want 50", c.EDP())
	}
}

// Property: every successfully evaluated random design has positive,
// finite delay and energy, and utilization within (0, 1].
func TestEvaluateInvariantsProperty(t *testing.T) {
	m := New()
	space := hw.EdgeSpace()
	l := testLayer()
	con := sched.Free()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := space.Random(rng)
		s := con.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		c, err := m.Evaluate(a, s, l)
		if err != nil {
			return errors.Is(err, ErrInvalid)
		}
		return c.DelayCycles > 0 && c.EnergyNJ > 0 &&
			c.Utilization > 0 && c.Utilization <= 1 &&
			c.DRAMBytes > 0 && c.NoCBytes > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestModelName(t *testing.T) {
	if New().Name() != "maestro" {
		t.Fatal("unexpected model name")
	}
}

func TestFullTileScheduleHasCompulsoryTrafficOnly(t *testing.T) {
	// When T2 covers the whole layer, every tensor crosses DRAM exactly
	// once: inputs and weights are read once, outputs written once with
	// no partial-sum readback.
	m := New()
	a := testAccel()
	a.L2KB = 256
	l := workload.Conv("t", 1, 16, 8, 3, 3, 18, 18)
	s := fullSchedule(l)
	s.T1, _ = sched.FitTiles(l, a.RFBytesPerPE(), 1)
	c, err := m.Evaluate(a, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if c.DRAMWeightBytes != float64(l.WeightElems()) {
		t.Fatalf("weight traffic %v, want exactly %v", c.DRAMWeightBytes, l.WeightElems())
	}
	if c.DRAMOutputBytes != float64(l.OutputElems()) {
		t.Fatalf("output traffic %v, want exactly %v", c.DRAMOutputBytes, l.OutputElems())
	}
	if c.DRAMInputBytes != float64(l.InputElems()) {
		t.Fatalf("input traffic %v, want exactly %v", c.DRAMInputBytes, l.InputElems())
	}
	if c.DRAMBytes != c.DRAMInputBytes+c.DRAMWeightBytes+c.DRAMOutputBytes {
		t.Fatal("breakdown does not sum to total")
	}
}

func TestBreakdownSumsToTotalProperty(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	rng := rand.New(rand.NewSource(31))
	free := sched.Free()
	checked := 0
	for i := 0; i < 200 && checked < 50; i++ {
		s := free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		c, err := m.Evaluate(a, s, l)
		if err != nil {
			continue
		}
		checked++
		sum := c.DRAMInputBytes + c.DRAMWeightBytes + c.DRAMOutputBytes
		if sum != c.DRAMBytes {
			t.Fatalf("breakdown %v != total %v", sum, c.DRAMBytes)
		}
		if c.DRAMInputBytes < float64(l.InputElems()) ||
			c.DRAMWeightBytes < float64(l.WeightElems()) ||
			c.DRAMOutputBytes < float64(l.OutputElems()) {
			t.Fatalf("per-tensor traffic below compulsory: %+v", c)
		}
	}
	if checked < 20 {
		t.Fatalf("too few valid schedules to check: %d", checked)
	}
}

func TestPowerEnergyDelayConsistency(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	c, err := m.Evaluate(a, fittedSchedule(a, l), l)
	if err != nil {
		t.Fatal(err)
	}
	// At 1 GHz, avg power (mW) = energy (pJ) / delay (cycles).
	want := c.EnergyNJ * 1000 / c.DelayCycles
	if math.Abs(c.PowerMW-want) > 1e-9*want {
		t.Fatalf("power %v inconsistent with E/D %v", c.PowerMW, want)
	}
}

func TestDelayIsRooflineMax(t *testing.T) {
	m := New()
	a := testAccel()
	l := testLayer()
	c, err := m.Evaluate(a, fittedSchedule(a, l), l)
	if err != nil {
		t.Fatal(err)
	}
	bound := math.Max(c.ComputeCycles, math.Max(c.DRAMCycles, c.NoCCycles))
	if c.DelayCycles < bound {
		t.Fatalf("delay %v below roofline %v", c.DelayCycles, bound)
	}
	// The ramp overhead is the only addition beyond the roofline.
	ramp := float64(a.Height() + a.Width)
	if c.DelayCycles > bound+ramp+1e-9 {
		t.Fatalf("delay %v exceeds roofline+ramp %v", c.DelayCycles, bound+ramp)
	}
}

func TestSameDimDoubleUnroll(t *testing.T) {
	// Unrolling the same dimension at both levels spreads its subtiles
	// over the whole array; the schedule must still evaluate cleanly.
	m := New()
	a := testAccel()
	l := testLayer()
	s := fittedSchedule(a, l)
	s.T2[workload.DimK] = 64
	s.T1[workload.DimK] = 1 // 64 K-subtiles over a 12x14 array
	s.OuterUnroll, s.InnerUnroll = workload.DimK, workload.DimK
	c, err := m.Evaluate(a, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if c.Utilization <= 0 || c.Utilization > 1 {
		t.Fatalf("double-unroll utilization out of range: %v", c.Utilization)
	}
}
