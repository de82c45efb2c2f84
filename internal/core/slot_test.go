package core

import (
	"math"
	"math/rand"
	"testing"

	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

// Layer slots keep each layer's RNG and Spotlight proposer for a whole
// run and reset them for every hardware sample. These tests pin that a
// reset slot behaves exactly like the new RNG and proposer it replaces.

// slotTriple is one search a slot serves: an accelerator, a layer and
// the search's seed.
type slotTriple struct {
	a    hw.Accel
	l    workload.Layer
	seed int64
}

// slotTriples draws n random searches over the edge and cloud spaces
// and the layers of every bundled model.
func slotTriples(rng *rand.Rand, n int) []slotTriple {
	var layers []workload.Layer
	for _, m := range workload.Models() {
		layers = append(layers, m.Layers...)
	}
	spaces := []hw.Space{hw.EdgeSpace(), hw.CloudSpace()}
	out := make([]slotTriple, n)
	for i := range out {
		out[i] = slotTriple{
			a:    spaces[rng.Intn(len(spaces))].Random(rng),
			l:    layers[rng.Intn(len(layers))],
			seed: rng.Int63(),
		}
	}
	return out
}

// TestLayerSlotRNGMatchesFresh: a slot's RNG, reseeded after any
// number of earlier draws, draws exactly what a new RNG with that seed
// draws, through every *rand.Rand method the searches call.
func TestLayerSlotRNGMatchesFresh(t *testing.T) {
	pick := rand.New(rand.NewSource(7))
	var sl layerSlot
	for trial := 0; trial < 20; trial++ {
		seed := deriveSeed(pick.Int63(), int64(trial), int64(pick.Intn(50)))
		got, want := sl.reseed(seed), xrand.New(seed)
		if trial > 0 && got != sl.rng {
			t.Fatal("reseed replaced the slot's RNG")
		}
		draws := 700 + pick.Intn(700) // leave the next reseed a used source
		for i := 0; i < draws; i++ {
			var g, w int64
			switch i % 4 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = int64(got.Intn(37)), int64(want.Intn(37))
			case 2:
				g, w = int64(math.Float64bits(got.Float64())), int64(math.Float64bits(want.Float64()))
			case 3:
				g, w = int64(got.Uint32()), int64(want.Uint32())
			}
			if g != w {
				t.Fatalf("trial %d, draw %d: reseeded slot RNG gave %d, a new RNG %d", trial, i, g, w)
			}
		}
	}
}

// TestLayerSlotProposerMatchesFresh drives one slot through a random
// sequence of searches and a new proposer through each search, and
// requires the same suggestions and the same stored observations at
// every step. The searches see invalid points (the cost model's and
// every seventh observation forced invalid), some degrade their
// surrogate midway, and every one ends with a decided ScoresCandidates
// (as a canceled search may), so a reset has to clear the fitted
// model, the fit failures and the cached decision. Every
// feature width is covered: Spotlight, Spotlight-F (three samplers),
// Spotlight-V and Spotlight-A, and a dense-GP kernel.
func TestLayerSlotProposerMatchesFresh(t *testing.T) {
	const budget = 24
	m := maestro.New()
	variants := []*Spotlight{NewSpotlight(), NewSpotlightF(), NewSpotlightV(), NewSpotlightA(),
		{Kernel: gp.Matern52{LengthScale: 1, Variance: 1}}}
	for vi, strat := range variants {
		name := strat.Name()
		if strat.Kernel != nil {
			name += "/" + strat.Kernel.Name()
		}
		t.Run(name, func(t *testing.T) {
			cfg := RunConfig{SWConstraint: sched.Free(), SWSamples: budget}
			var sl layerSlot
			slotCfg := cfg
			slotCfg.slot = &sl
			var kept *spotlightSW
			for ti, tr := range slotTriples(rand.New(rand.NewSource(int64(vi))), 8) {
				reused := strat.NewSW(slotCfg, sl.reseed(tr.seed), tr.a, tr.l).(*spotlightSW)
				if ti > 0 && reused != kept {
					t.Fatalf("search %d built a new proposer instead of resetting the slot's", ti)
				}
				kept = reused
				fresh := strat.NewSW(cfg, xrand.New(tr.seed), tr.a, tr.l).(*spotlightSW)
				if reused.dabo.Surrogate() != nil || fresh.dabo.Surrogate() != nil {
					t.Fatalf("search %d starts with a surrogate fitted", ti)
				}
				degradeAt := -1
				if ti%3 == 1 {
					degradeAt = budget / 2
				}
				for step := 0; step < budget; step++ {
					if step == degradeAt {
						reused.dabo.fitAttempts = maxFitFailures
						fresh.dabo.fitAttempts = maxFitFailures
					}
					s, want := reused.Suggest(), fresh.Suggest()
					if s != want {
						t.Fatalf("search %d (%s on %s), step %d: slot suggested %v, new proposer %v",
							ti, tr.l.Name, tr.a, step, s, want)
					}
					obj, err := math.Inf(1), error(maestro.ErrInvalid)
					if c, cerr := m.Evaluate(tr.a, s, tr.l); cerr == nil && step%7 != 6 {
						obj, err = MinEDP.LayerCost(c), nil
					}
					reused.Observe(s, obj, err)
					fresh.Observe(s, obj, err)
					sameObservations(t, reused.dabo, fresh.dabo)
				}
				if reused.dabo.Degraded() != fresh.dabo.Degraded() {
					t.Fatalf("search %d: slot degraded %v, new proposer %v",
						ti, reused.dabo.Degraded(), fresh.dabo.Degraded())
				}
				reused.dabo.ScoresCandidates()
			}
		})
	}
}

// sameObservations fails unless two daBOs hold bit-identical
// observation stores.
func sameObservations(t *testing.T, got, want *DABO) {
	t.Helper()
	gv, gi := got.Observations()
	wv, wi := want.Observations()
	if gv != wv || gi != wi {
		t.Fatalf("slot holds %d valid and %d invalid observations, new proposer %d and %d", gv, gi, wv, wi)
	}
	for _, p := range [][2][]float64{{got.x, want.x}, {got.y, want.y}} {
		for i := range p[1] {
			if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
				t.Fatalf("stored observation value %d is %v in the slot, %v in the new proposer", i, p[0][i], p[1][i])
			}
		}
	}
}

// slotless hides the driver's layer slots from its strategy, so every
// NewSW builds a new proposer: the reference a slotted run reproduces.
type slotless struct{ Strategy }

func (s slotless) NewSW(cfg RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) SWProposer {
	cfg.slot = nil
	return s.Strategy.NewSW(cfg, rng, a, l)
}

// TestLayerSlotRunMatchesFreshProposers: a run whose layer searches
// reuse their slots' proposers on four workers matches, bit for bit, a
// run that builds a new proposer for every search. Each slot passes
// from the driver goroutine to a worker and back every hardware sample,
// which is what -race checks here.
func TestLayerSlotRunMatchesFreshProposers(t *testing.T) {
	for _, mk := range []func() *Spotlight{NewSpotlight, NewSpotlightF} {
		cfg := RunConfig{
			Models:    []workload.Model{workload.MobileNetV2()},
			Objective: MinEDP,
			HWSamples: 4,
			SWSamples: 12,
			Seed:      9,
			Eval:      maestro.New(),
			Workers:   4,
		}
		got, err := Run(cfg, mk())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(cfg, slotless{mk()})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.History) != len(want.History) {
			t.Fatalf("%s: %d history points, want %d", got.Tool, len(got.History), len(want.History))
		}
		for i := range want.History {
			if g, w := got.History[i].Value, want.History[i].Value; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: sample %d objective %v with slots, %v without", got.Tool, i+1, g, w)
			}
		}
		for i, lr := range want.Best.Layers {
			if got.Best.Layers[i].Schedule != lr.Schedule {
				t.Fatalf("%s: layer %s schedule differs with slots", got.Tool, lr.Layer.Name)
			}
		}
	}
}

// TestLayerSlotReuseAllocatesNothing: reseeding a warm slot's RNG
// allocates nothing, nor does NewSW through a warm slot for another
// accelerator followed by a full budget of observations, which fill
// the observation store and moment matrices the previous search left.
// Neither path touches pooled scratch, so the gate also holds under
// -race.
func TestLayerSlotReuseAllocatesNothing(t *testing.T) {
	var sl layerSlot
	sl.reseed(1)
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() { seed++; sl.reseed(seed) }); n != 0 {
		t.Errorf("reseeding a warm slot allocated %v objects, want 0", n)
	}

	const budget = 24
	l := workload.ResNet50().Layers[6]
	accels := []hw.Accel{hw.EyerissEdge().Accel, hw.EdgeSpace().Random(rand.New(rand.NewSource(3)))}
	m := maestro.New()
	for _, strat := range []*Spotlight{NewSpotlight(), NewSpotlightF()} {
		cfg := RunConfig{SWConstraint: sched.Free(), SWSamples: budget, slot: new(layerSlot)}
		rng := cfg.slot.reseed(2)
		// One valid schedule per accelerator to observe repeatedly.
		valid := make([]sched.Schedule, len(accels))
		objs := make([]float64, len(accels))
		for i, a := range accels {
			sw := strat.NewSW(cfg, rng, a, l)
			for objs[i] == 0 {
				valid[i] = sw.Suggest()
				if c, err := m.Evaluate(a, valid[i], l); err == nil {
					objs[i] = MinEDP.LayerCost(c)
				}
			}
			for j := 0; j < budget; j++ {
				sw.Observe(valid[i], objs[i], nil)
			}
		}
		i := 0
		if n := testing.AllocsPerRun(50, func() {
			i = 1 - i
			sw := strat.NewSW(cfg, rng, accels[i], l)
			for j := 0; j < budget; j++ {
				sw.Observe(valid[i], objs[i], nil)
			}
		}); n != 0 {
			t.Errorf("%s: NewSW through a warm slot and %d observations allocated %v objects, want 0",
				strat.Name(), budget, n)
		}
	}
}
