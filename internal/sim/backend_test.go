package sim

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Compile-time: the hybrid backend is a drop-in cost model.
var _ core.Evaluator = (*Backend)(nil)

// recordingSink counts backend events, standing in for the pipeline's
// backend counters.
type recordingSink struct {
	mu     sync.Mutex
	events map[string]int
}

func (r *recordingSink) Event(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events == nil {
		r.events = make(map[string]int)
	}
	r.events[name]++
}

func (r *recordingSink) count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events[name]
}

func TestBackendSimulatesSmallNests(t *testing.T) {
	b := NewBackend(Options{})
	sink := &recordingSink{}
	b.Events = sink
	a := testAccel()
	l := testLayer()
	c, err := b.Evaluate(a, smallSchedule(l), l)
	if err != nil {
		t.Fatal(err)
	}
	if sim, fb := sink.count(EventSimulated), sink.count(EventFallback); sim != 1 || fb != 0 {
		t.Fatalf("expected one simulated evaluation, got sim=%d fb=%d", sim, fb)
	}
	if c.DelayCycles <= 0 || c.EnergyNJ <= 0 {
		t.Fatalf("bad hybrid cost: %+v", c)
	}
	if c.Utilization <= 0 || c.Utilization > 1 {
		t.Fatalf("utilization out of range: %v", c.Utilization)
	}
	// The LRU cache can only reduce DRAM traffic relative to the
	// analytical single-working-set assumption.
	analytic, err := maestro.New().Evaluate(a, smallSchedule(l), l)
	if err != nil {
		t.Fatal(err)
	}
	if c.DRAMBytes > analytic.DRAMBytes {
		t.Fatalf("hybrid DRAM %v above analytical %v", c.DRAMBytes, analytic.DRAMBytes)
	}
	if c.EnergyNJ > analytic.EnergyNJ {
		t.Fatalf("hybrid energy %v above analytical %v", c.EnergyNJ, analytic.EnergyNJ)
	}
}

func TestBackendFallsBackOnHugeNests(t *testing.T) {
	b := NewBackend(Options{MaxIterations: 4})
	sink := &recordingSink{}
	b.Events = sink
	a := testAccel()
	l := testLayer()
	s := smallSchedule(l) // 16 iterations > bound 4
	c, err := b.Evaluate(a, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if sim, fb := sink.count(EventSimulated), sink.count(EventFallback); fb != 1 || sim != 0 {
		t.Fatalf("expected fallback, got sim=%d fb=%d", sim, fb)
	}
	analytic, err := maestro.New().Evaluate(a, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if c != analytic {
		t.Fatal("fallback result differs from the analytical model")
	}
}

func TestBackendPropagatesInvalidity(t *testing.T) {
	b := NewBackend(Options{})
	a := testAccel()
	l := testLayer()
	s := smallSchedule(l)
	s.T2[workload.DimK] = 3 // not a divisor of K=16
	if _, err := b.Evaluate(a, s, l); !errors.Is(err, maestro.ErrInvalid) {
		t.Fatalf("expected ErrInvalid, got %v", err)
	}
}

func TestBackendUsableInCoDesign(t *testing.T) {
	// Spotlight runs end-to-end with the hybrid backend as its cost
	// model (the paper's "more accurate backend" slot).
	tiny := workload.Model{
		Name:   "tiny",
		Layers: []workload.Layer{workload.Conv("a", 1, 8, 4, 3, 3, 6, 6)},
	}
	cfg := core.RunConfig{
		Models:    []workload.Model{tiny},
		Objective: core.MinEDP,
		HWSamples: 5,
		SWSamples: 8,
		Seed:      2,
		Eval:      NewBackend(Options{}),
	}
	res, err := core.Run(cfg, core.NewSpotlight())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Objective <= 0 {
		t.Fatalf("bad objective %v", res.Best.Objective)
	}
}

func TestBackendName(t *testing.T) {
	if NewBackend(Options{}).Name() != "sim-hybrid" {
		t.Fatal("unexpected backend name")
	}
}

func TestBackendDelayConsistent(t *testing.T) {
	// With random valid schedules, hybrid delay must never exceed the
	// analytical delay (traffic can only shrink) and power must stay
	// consistent with energy/delay.
	b := NewBackend(Options{})
	m := maestro.New()
	a := testAccel()
	l := testLayer()
	rng := rand.New(rand.NewSource(3))
	free := sched.Free()
	checked := 0
	for i := 0; i < 200 && checked < 30; i++ {
		s := free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		hybrid, err1 := b.Evaluate(a, s, l)
		analytic, err2 := m.Evaluate(a, s, l)
		if err1 != nil || err2 != nil {
			continue
		}
		checked++
		if hybrid.DelayCycles > analytic.DelayCycles+1e-9 {
			t.Fatalf("hybrid delay %v above analytical %v", hybrid.DelayCycles, analytic.DelayCycles)
		}
		wantPower := hybrid.EnergyNJ * 1000 / hybrid.DelayCycles
		if diff := hybrid.PowerMW - wantPower; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("power inconsistent: %v vs %v", hybrid.PowerMW, wantPower)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d schedules checked", checked)
	}
}
