package core

import (
	"math/rand"
	"testing"

	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// The search allocates per search, not per call: these gates pin the
// steady state of daBO_SW's Suggest and Observe and of a primal refit
// at zero allocations. Their scratch is pooled, so they skip under
// -race (see raceEnabled).

func TestSpotlightSWSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	a := hw.EyerissEdge().Accel
	l := workload.ResNet50().Layers[6]
	m := maestro.New()
	cfg := RunConfig{SWConstraint: sched.Free(), SWSamples: 1000}
	// One valid observation to repeat.
	probe := NewSpotlight().NewSW(cfg, rand.New(rand.NewSource(2)), a, l)
	var s sched.Schedule
	var obj float64
	for obj == 0 {
		s = probe.Suggest()
		if c, err := m.Evaluate(a, s, l); err == nil {
			obj = MinDelay.LayerCost(c)
		}
	}
	// Spotlight-F's warmup records from three samplers with fixed loop
	// orders, the other layout the record path decodes.
	for _, tc := range []struct {
		name    string
		strat   *Spotlight
		observe int
		scores  bool
	}{
		{"warmup", NewSpotlight(), 0, false},
		{"scoring", NewSpotlight(), 24, true},
		{"spotlight-f-warmup", NewSpotlightF(), 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := tc.strat.NewSW(cfg, rand.New(rand.NewSource(1)), a, l)
			for i := 0; i < tc.observe; i++ {
				s := sw.Suggest()
				c, err := m.Evaluate(a, s, l)
				sw.Observe(s, MinDelay.LayerCost(c), err)
			}
			if got := sw.(*spotlightSW).dabo.ScoresCandidates(); got != tc.scores {
				t.Fatalf("surrogate scores candidates: %v, want %v", got, tc.scores)
			}
			_ = sw.Suggest() // absorbs a pending refit
			if n := testing.AllocsPerRun(100, func() { _ = sw.Suggest() }); n != 0 {
				t.Errorf("Suggest allocated %v objects per call, want 0", n)
			}
			// Observations fill the store the search sized for its budget.
			if n := testing.AllocsPerRun(100, func() { sw.Observe(s, obj, nil) }); n != 0 {
				t.Errorf("Observe allocated %v objects per call, want 0", n)
			}
		})
	}
}

func TestDABOPrimalRefitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	rng := rand.New(rand.NewSource(3))
	d := NewDABO(gp.Linear{Bias: 1}, rng, WithWarmup(0), WithRefitEvery(1), withCapacity(1000))
	x := make([]float64, 11)
	observe := func() {
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		d.Observe(x, 1+rng.Float64())
	}
	for i := 0; i < 20; i++ {
		observe()
	}
	if err := d.ensureFit(); err != nil { // the first fit sizes the model
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		observe()
		if err := d.ensureFit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a refit after the first allocated %v objects, want 0", n)
	}
}

// BenchmarkSpotlightSWSuggest measures one daBO_SW suggestion on a
// ResNet-50 layer, the hot path of Spotlight's search. "warmup" is a
// proposer with no observations: its surrogate does not score, so it
// draws one random schedule from the layer's precomputed sampler and
// returns it. "scoring" is one trained on 24 analytical-model
// observations: it draws 64 candidates' tiles, fills each one's
// Figure 4 row in one pass from the trip counts its sampler drew,
// ranks the batch on the surrogate, and draws loop orders only for the
// candidate it returns. The proposer is built as evaluateHardware
// builds it, from a reseeded layer slot passed through RunConfig.slot,
// so its samplers draw from the slot's PCG state directly, as in a run.
// Both report 0 allocs/op: the candidate batch is borrowed from a pool
// per call, and TestSpotlightSWSteadyStateAllocatesNothing gates it.
func BenchmarkSpotlightSWSuggest(b *testing.B) {
	a := hw.EyerissEdge().Accel
	l := workload.ResNet50().Layers[6]
	m := maestro.New()
	for _, bc := range []struct {
		name    string
		observe int
	}{{"warmup", 0}, {"scoring", 24}} {
		b.Run(bc.name, func(b *testing.B) {
			var slot layerSlot
			cfg := RunConfig{SWConstraint: sched.Free(), slot: &slot}
			sw := NewSpotlight().NewSW(cfg, slot.reseed(1), a, l)
			if sw.(*spotlightSW).rng != slot.rng {
				b.Fatal("proposer draws through a wrap, not from the slot's generator")
			}
			for i := 0; i < bc.observe; i++ {
				s := sw.Suggest()
				c, err := m.Evaluate(a, s, l)
				sw.Observe(s, MinDelay.LayerCost(c), err)
			}
			// One untimed suggestion absorbs the surrogate's refit.
			_ = sw.Suggest()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sw.Suggest()
			}
		})
	}
}
