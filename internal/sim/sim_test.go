package sim

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
	return hw.Accel{PEs: 64, Width: 8, SIMDLanes: 2, RFKB: 64, L2KB: 128, NoCBW: 64}
}

func testLayer() workload.Layer {
	return workload.Conv("t", 1, 16, 8, 3, 3, 10, 10) // 8x8 out
}

// smallSchedule tiles every searched dim at 2 so the nest is walkable.
func smallSchedule(l workload.Layer) sched.Schedule {
	var s sched.Schedule
	for i, d := range workload.AllDims {
		size := l.Size(d)
		t2 := size
		if size%2 == 0 {
			t2 = size / 2
		}
		s.T2[i] = t2
		s.T1[i] = 1
	}
	s.OuterOrder = sched.CanonicalOrder()
	s.InnerOrder = sched.CanonicalOrder()
	s.OuterUnroll = workload.DimK
	s.InnerUnroll = workload.DimC
	return s
}

func TestSimulateBasics(t *testing.T) {
	tr, err := Simulate(testAccel(), smallSchedule(testLayer()), testLayer(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Trips with halved tiles: N1 K2 C2 R1 S1 X2 Y2 => 16 iterations.
	if tr.Iterations != 16 {
		t.Fatalf("walked %d iterations, want 16", tr.Iterations)
	}
	for tensor := sched.TensorInput; tensor < sched.NumTensors; tensor++ {
		if tr.Fetches[tensor] == 0 {
			t.Fatalf("%v never fetched", tensor)
		}
	}
	if tr.DRAMBytes() <= 0 {
		t.Fatal("no DRAM traffic")
	}
}

// The headline validation: with a single working set, the simulator's
// traffic must match the analytical model's stationarity-rule DRAM
// traffic exactly, across random schedules and loop orders.
func TestSimulatorMatchesAnalyticalModel(t *testing.T) {
	a := testAccel()
	l := testLayer()
	m := maestro.New()
	rng := rand.New(rand.NewSource(7))
	free := sched.Free()
	checked := 0
	for i := 0; i < 400 && checked < 60; i++ {
		s := free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		cost, err := m.Evaluate(a, s, l)
		if err != nil {
			continue
		}
		tr, err := Simulate(a, s, l, Options{SingleWorkingSet: true})
		if err != nil {
			continue
		}
		checked++
		if got, want := tr.DRAMBytes(), cost.DRAMBytes; got != want {
			t.Fatalf("schedule %d: simulated DRAM %v != analytical %v\n%s", i, got, want, s)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d schedules checked", checked)
	}
}

func TestLargerCacheNeverIncreasesTraffic(t *testing.T) {
	a := testAccel()
	l := testLayer()
	rng := rand.New(rand.NewSource(9))
	free := sched.Free()
	checked := 0
	for i := 0; i < 300 && checked < 40; i++ {
		s := free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		single, err1 := Simulate(a, s, l, Options{SingleWorkingSet: true})
		full, err2 := Simulate(a, s, l, Options{})
		if err1 != nil || err2 != nil {
			continue
		}
		checked++
		if full.DRAMBytes() > single.DRAMBytes() {
			t.Fatalf("full cache moved more data (%v) than single working set (%v)\n%s",
				full.DRAMBytes(), single.DRAMBytes(), s)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d schedules checked", checked)
	}
}

func TestCompulsoryTraffic(t *testing.T) {
	// Reads can never go below one pass over inputs and weights, and
	// writes never below one pass over outputs.
	a := testAccel()
	l := testLayer()
	s := smallSchedule(l)
	tr, err := Simulate(a, s, l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.DRAMWriteBytes < float64(l.OutputElems()) {
		t.Fatalf("writes %v below output size %v", tr.DRAMWriteBytes, l.OutputElems())
	}
	if tr.DRAMReadBytes < float64(l.WeightElems()) {
		t.Fatalf("reads %v below weight size %v", tr.DRAMReadBytes, l.WeightElems())
	}
}

func TestRejectsHugeNest(t *testing.T) {
	l := workload.Conv("big", 1, 512, 512, 3, 3, 226, 226)
	var s sched.Schedule
	for i := range workload.AllDims {
		s.T2[i] = 1
		s.T1[i] = 1
	}
	s.OuterOrder = sched.CanonicalOrder()
	s.InnerOrder = sched.CanonicalOrder()
	_, err := Simulate(testAccel(), s, l, Options{})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
}

func TestRejectsOversizedWorkingSet(t *testing.T) {
	a := testAccel()
	a.L2KB = 64
	l := workload.Conv("fat", 1, 256, 256, 3, 3, 18, 18)
	var s sched.Schedule
	for i, d := range workload.AllDims {
		s.T2[i] = l.Size(d)
		s.T1[i] = 1
	}
	s.OuterOrder = sched.CanonicalOrder()
	s.InnerOrder = sched.CanonicalOrder()
	if _, err := Simulate(a, s, l, Options{}); err == nil {
		t.Fatal("oversized working set accepted")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU(10)
	if c.touch(tileKey{sched.TensorInput, 1}, 6, false) {
		t.Fatal("cold miss reported as hit")
	}
	if !c.touch(tileKey{sched.TensorInput, 1}, 6, false) {
		t.Fatal("resident tile reported as miss")
	}
	// Insert a second tile that forces eviction of the first.
	c.touch(tileKey{sched.TensorWeight, 1}, 6, false)
	if c.touch(tileKey{sched.TensorInput, 1}, 6, false) {
		t.Fatal("evicted tile reported as hit")
	}
}

func TestLRUDirtyWriteback(t *testing.T) {
	c := newLRU(10)
	c.touch(tileKey{sched.TensorOutput, 1}, 6, true)
	c.touch(tileKey{sched.TensorInput, 1}, 6, false) // evicts the dirty output
	if c.writebackBytes != 6 {
		t.Fatalf("writeback bytes = %d, want 6", c.writebackBytes)
	}
	c.touch(tileKey{sched.TensorOutput, 2}, 6, true)
	c.flushDirty()
	if c.writebackBytes != 12 {
		t.Fatalf("writeback bytes after flush = %d, want 12", c.writebackBytes)
	}
	// Flushing twice must not double-count.
	c.flushDirty()
	if c.writebackBytes != 12 {
		t.Fatal("flush double-counted")
	}
}

func TestAdvanceWalksFullNest(t *testing.T) {
	var idx [workload.NumDims]int
	trips := [workload.NumDims]int{1, 2, 3, 1, 1, 2, 1}
	order := sched.CanonicalOrder()
	count := 1
	for advance(&idx, order, trips) {
		count++
	}
	if count != 2*3*2 {
		t.Fatalf("walked %d iterations, want 12", count)
	}
}
