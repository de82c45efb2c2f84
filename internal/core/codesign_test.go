package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/workload"
)

func maestroCost(energy, delay float64) (c maestro.Cost) {
	c.EnergyNJ = energy
	c.DelayCycles = delay
	return c
}

// tinyModel is a small two-layer model that keeps end-to-end tests fast.
func tinyModel() workload.Model {
	return workload.Model{
		Name: "tiny",
		Layers: []workload.Layer{
			workload.Conv("a", 1, 32, 16, 3, 3, 10, 10),
			workload.Conv("b", 1, 64, 32, 1, 1, 8, 8).Times(2),
		},
	}
}

func tinyConfig(seed int64) RunConfig {
	return RunConfig{
		Models:    []workload.Model{tinyModel()},
		Space:     hw.EdgeSpace(),
		Budget:    hw.EdgeBudget(),
		Objective: MinEDP,
		HWSamples: 8,
		SWSamples: 12,
		Seed:      seed,
		Eval:      maestro.New(),
	}
}

func TestRunSpotlightEndToEnd(t *testing.T) {
	res, err := Run(tinyConfig(1), NewSpotlight())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Tool != "Spotlight" {
		t.Fatalf("tool = %q", res.Tool)
	}
	if len(res.History) != 8 {
		t.Fatalf("history has %d points, want 8", len(res.History))
	}
	if math.IsInf(res.Best.Objective, 1) || res.Best.Objective <= 0 {
		t.Fatalf("bad best objective: %v", res.Best.Objective)
	}
	// BestSoFar must be non-increasing.
	prev := math.Inf(1)
	for _, h := range res.History {
		if h.BestSoFar > prev {
			t.Fatalf("BestSoFar increased at sample %d", h.Sample)
		}
		prev = h.BestSoFar
	}
	// The winning design fits the budget and covers every layer.
	if !res.Config.Budget.Fits(res.Best.Accel) {
		t.Fatal("winning design exceeds budget")
	}
	if len(res.Best.Layers) != 2 {
		t.Fatalf("winning design has %d layer results, want 2", len(res.Best.Layers))
	}
	for _, lr := range res.Best.Layers {
		if !lr.Valid {
			t.Fatalf("layer %s has no valid schedule", lr.Layer.Name)
		}
		if err := lr.Schedule.Validate(lr.Layer); err != nil {
			t.Fatalf("winning schedule invalid: %v", err)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	r1, err1 := Run(tinyConfig(7), NewSpotlight())
	r2, err2 := Run(tinyConfig(7), NewSpotlight())
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v / %v", err1, err2)
	}
	if r1.Best.Objective != r2.Best.Objective {
		t.Fatalf("same seed, different results: %v vs %v", r1.Best.Objective, r2.Best.Objective)
	}
	r3, err3 := Run(tinyConfig(8), NewSpotlight())
	if err3 != nil {
		t.Fatal(err3)
	}
	if r3.Best.Objective == r1.Best.Objective {
		t.Log("warning: different seeds produced identical objectives (possible but unlikely)")
	}
}

// stripElapsed copies a history with the wall-clock column zeroed, so
// determinism tests can compare the search trajectory byte for byte.
func stripElapsed(h []HistoryPoint) []HistoryPoint {
	out := append([]HistoryPoint(nil), h...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	base := tinyConfig(21)
	var ref Result
	for i, workers := range []int{1, 2, 8} {
		cfg := base
		cfg.Workers = workers
		res, err := Run(cfg, NewSpotlight())
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(stripElapsed(ref.History), stripElapsed(res.History)) {
			t.Fatalf("Workers=%d produced a different history than Workers=1", workers)
		}
		if ref.Best.Objective != res.Best.Objective {
			t.Fatalf("Workers=%d best %v != Workers=1 best %v", workers, res.Best.Objective, ref.Best.Objective)
		}
	}
}

// TestRunDeterministicMultiModel repeats a five-model run and requires
// the same History and Best bit for bit every time. The per-model
// objectives are summed in model order; summed in map order, this run
// differs in the last bit of some objectives from one repetition to the
// next.
func TestRunDeterministicMultiModel(t *testing.T) {
	cfg := tinyConfig(3)
	cfg.Models = workload.Models()
	cfg.HWSamples, cfg.SWSamples = 6, 4
	var ref Result
	for i := 0; i < 8; i++ {
		res, err := Run(cfg, NewSpotlight())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(stripElapsed(ref.History), stripElapsed(res.History)) {
			t.Fatalf("repetition %d produced a different history", i)
		}
		if !reflect.DeepEqual(ref.Best, res.Best) {
			t.Fatalf("repetition %d best %v != first best %v", i, res.Best.Objective, ref.Best.Objective)
		}
	}
}

func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := tinyConfig(23) // Workers=0: pool width follows GOMAXPROCS
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	r1, err := Run(cfg, NewSpotlight())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r2, err := Run(cfg, NewSpotlight())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripElapsed(r1.History), stripElapsed(r2.History)) {
		t.Fatal("history differs between GOMAXPROCS=1 and GOMAXPROCS=NumCPU")
	}
	if r1.Best.Objective != r2.Best.Objective {
		t.Fatalf("best objective differs: %v vs %v", r1.Best.Objective, r2.Best.Objective)
	}
}

func TestRunRejectsEmptyConfig(t *testing.T) {
	if _, err := Run(RunConfig{}, NewSpotlight()); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := tinyConfig(1)
	cfg.Eval = nil
	if _, err := Run(cfg, NewSpotlight()); err == nil {
		t.Fatal("missing evaluator accepted")
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	cfg := RunConfig{
		Models:    []workload.Model{tinyModel()},
		Objective: MinDelay,
		HWSamples: 3,
		SWSamples: 5,
		Eval:      maestro.New(),
	}
	res, err := Run(cfg, NewSpotlight())
	if err != nil {
		t.Fatalf("run with defaults failed: %v", err)
	}
	if res.Config.Space.Name != "edge" {
		t.Fatal("edge space default not applied")
	}
	if res.Config.SWConstraint.Name != "free" {
		t.Fatal("free constraint default not applied")
	}
}

func TestOptimizeSoftwareOnBaseline(t *testing.T) {
	b := hw.EyerissEdge()
	cfg := tinyConfig(3)
	cfg.SWConstraint = b.Constraint
	design, err := OptimizeSoftware(context.Background(), cfg, NewSpotlight(), b.Accel)
	if err != nil {
		t.Fatalf("software optimization failed: %v", err)
	}
	if design.Accel != b.Accel {
		t.Fatal("accelerator changed during software-only optimization")
	}
	if design.Objective <= 0 || math.IsInf(design.Objective, 1) {
		t.Fatalf("bad objective: %v", design.Objective)
	}
	// Eyeriss-like schedules must respect the pinned dataflow.
	for _, lr := range design.Layers {
		if lr.Schedule.OuterUnroll != workload.DimY || lr.Schedule.InnerUnroll != workload.DimX {
			t.Fatalf("schedule escaped the Eyeriss dataflow: %v", lr.Schedule)
		}
	}
}

func TestModelObjectives(t *testing.T) {
	d := Design{Layers: []LayerResult{
		{Model: "m1", Layer: workload.Conv("a", 1, 1, 1, 1, 1, 1, 1), Cost: maestroCost(2, 3), Valid: true},
		{Model: "m1", Layer: workload.Conv("b", 1, 1, 1, 1, 1, 1, 1).Times(2), Cost: maestroCost(1, 1), Valid: true},
		{Model: "m2", Layer: workload.Conv("c", 1, 1, 1, 1, 1, 1, 1), Cost: maestroCost(4, 5), Valid: true},
	}}
	objs := ModelObjectives(MinDelay, d)
	if objs["m1"] != 5 { // 3 + 2×1
		t.Fatalf("m1 delay = %v, want 5", objs["m1"])
	}
	if objs["m2"] != 5 {
		t.Fatalf("m2 delay = %v, want 5", objs["m2"])
	}
	edp := ModelObjectives(MinEDP, d)
	if edp["m1"] != (2+2)*(3+2) {
		t.Fatalf("m1 EDP = %v, want 20", edp["m1"])
	}
	// EDP multiplies each model's totals, never the design's: m1's
	// 4×5 plus m2's 4×5, not 8×10. Interleaving the models' layers
	// changes neither total.
	interleaved := []LayerResult{d.Layers[0], d.Layers[2], d.Layers[1]}
	for _, layers := range [][]LayerResult{d.Layers, interleaved} {
		if got := DesignObjective(MinEDP, layers); got != 40 {
			t.Fatalf("DesignObjective(EDP) = %v, want 40", got)
		}
		if got := DesignObjective(MinDelay, layers); got != 10 {
			t.Fatalf("DesignObjective(delay) = %v, want 10", got)
		}
	}
}

func TestMultiModelAggregation(t *testing.T) {
	cfg := tinyConfig(5)
	second := tinyModel()
	second.Name = "tiny2"
	cfg.Models = append(cfg.Models, second)
	res, err := Run(cfg, NewSpotlight())
	if err != nil {
		t.Fatalf("multi-model run failed: %v", err)
	}
	objs := ModelObjectives(cfg.Objective, res.Best)
	if len(objs) != 2 {
		t.Fatalf("per-model objectives = %v, want 2 entries", objs)
	}
	var sum float64
	for _, m := range cfg.Models {
		sum += objs[m.Name]
	}
	if sum != res.Best.Objective {
		t.Fatalf("per-model sum %v != aggregate %v", sum, res.Best.Objective)
	}
	// Every retained two-model EDP design's objective is DesignObjective
	// of its layers, to the bit.
	for _, d := range slices.Concat(res.Top, res.Frontier) {
		if got := DesignObjective(cfg.Objective, d.Layers); got != d.Objective {
			t.Fatalf("DesignObjective %v != design objective %v", got, d.Objective)
		}
	}
}

func TestSpotlightVariantNames(t *testing.T) {
	if NewSpotlight().Name() != "Spotlight" ||
		NewSpotlightV().Name() != "Spotlight-V" ||
		NewSpotlightA().Name() != "Spotlight-A" ||
		NewSpotlightF().Name() != "Spotlight-F" {
		t.Fatal("variant names wrong")
	}
}

func TestSpotlightVariantsRun(t *testing.T) {
	for _, strat := range []*Spotlight{NewSpotlightV(), NewSpotlightA(), NewSpotlightF()} {
		res, err := Run(tinyConfig(11), strat)
		if err != nil {
			t.Fatalf("%s failed: %v", strat.Name(), err)
		}
		if res.Best.Objective <= 0 {
			t.Fatalf("%s produced bad objective", strat.Name())
		}
	}
}

func TestSpotlightFStaysInFixedDataflows(t *testing.T) {
	res, err := Run(tinyConfig(13), NewSpotlightF())
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[workload.Dim]bool{
		workload.DimY: true, workload.DimK: true, workload.DimX: true,
	}
	for _, lr := range res.Best.Layers {
		if !allowed[lr.Schedule.OuterUnroll] {
			t.Fatalf("Spotlight-F escaped fixed dataflows: outer unroll %v", lr.Schedule.OuterUnroll)
		}
	}
}

func TestSWImportanceFromOptimizeLayer(t *testing.T) {
	cfg := tinyConfig(17)
	res, err := Run(cfg, NewSpotlight())
	if err != nil {
		t.Fatal(err)
	}
	rng := randSource(17)
	_, sw, err := OptimizeLayer(context.Background(), cfg, NewSpotlight(), rng, res.Best.Accel, tinyModel().Layers[0], cfg.SWSamples)
	if err != nil {
		t.Fatal(err)
	}
	names, imp, ok := SWImportance(sw, rng)
	if !ok {
		t.Fatal("no importance available from OptimizeLayer's proposer")
	}
	if len(names) != len(imp) || len(names) == 0 {
		t.Fatalf("importance shape mismatch: %d names, %d values", len(names), len(imp))
	}
	for i, v := range imp {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("importance %s = %v", names[i], v)
		}
	}
	if _, _, ok := SWImportance(nil, rng); ok {
		t.Fatal("importance reported for a proposer that is not Spotlight's")
	}
}

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
