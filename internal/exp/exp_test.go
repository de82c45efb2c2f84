package exp

import (
	"bytes"
	"context"
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

// tinyCfg is a fast configuration for structural tests.
func tinyCfg() Config {
	return Config{
		Scale:     "edge",
		Objective: core.MinDelay,
		HWSamples: 6,
		SWSamples: 8,
		Trials:    2,
		Seed:      1,
		Models:    []string{"Transformer"},
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Scale != "edge" || c.HWSamples <= 0 || c.SWSamples <= 0 || c.Trials <= 0 || c.Eval == nil {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestConfigModels(t *testing.T) {
	cfg := Config{}.normalized()
	ms, err := cfg.models()
	if err != nil || len(ms) != 5 {
		t.Fatalf("default models = %d, err %v", len(ms), err)
	}
	if _, err := (Config{Models: []string{"nope"}}).models(); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestConfigScales(t *testing.T) {
	for _, tc := range []struct {
		scale  string
		budget hw.Budget
	}{{"edge", hw.EdgeBudget()}, {"cloud", hw.CloudBudget()}} {
		rc, err := (Config{Scale: tc.scale}).runConfig(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Space.Name != tc.scale || rc.Budget != tc.budget {
			t.Fatalf("scale %q: space %q, budget %+v", tc.scale, rc.Space.Name, rc.Budget)
		}
	}
	if _, err := (Config{Scale: "orbit"}).runConfig(nil, 0); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestPaperConfigScale(t *testing.T) {
	p := Paper()
	if p.HWSamples != 100 || p.SWSamples != 100 || p.Trials != 10 {
		t.Fatalf("paper config = %+v", p)
	}
}

func TestFig6Structure(t *testing.T) {
	rows, err := Fig6(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Transformer: Spotlight + 3 baselines; ConfuciuX and HASCO are
	// excluded for Transformer per the paper's tool limitations.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.Min <= 0 || r.Median < r.Min || r.Max < r.Median {
			t.Fatalf("malformed row %+v", r)
		}
		if r.Config == "Spotlight" && math.Abs(r.Normalized-1) > 1e-9 {
			t.Fatalf("Spotlight not normalized to 1: %+v", r)
		}
	}
}

func TestFig6ToolSupportMatrix(t *testing.T) {
	cases := []struct {
		tool, model string
		want        bool
	}{
		{"HASCO", "VGG16", false},
		{"HASCO", "ResNet-50", true},
		{"HASCO", "Transformer", false},
		{"ConfuciuX", "Transformer", false},
		{"ConfuciuX", "VGG16", true},
		{"Spotlight", "Transformer", true},
	}
	for _, c := range cases {
		if got := toolSupports(c.tool, c.model); got != c.want {
			t.Errorf("toolSupports(%s, %s) = %v, want %v", c.tool, c.model, got, c.want)
		}
	}
}

func TestFig10And11Structure(t *testing.T) {
	cfg := tinyCfg()
	cfg.Trials = 2
	curves, err := Fig10(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, ok := curves["Transformer"]
	if !ok {
		t.Fatal("no curves for Transformer")
	}
	// Spotlight, -R, -F, -V, -GA for Transformer (ConfuciuX/HASCO excluded).
	if len(cs) != 5 {
		t.Fatalf("got %d curves, want 5", len(cs))
	}
	for _, c := range cs {
		if len(c.Trials) != 2 {
			t.Fatalf("%s has %d trials, want 2", c.Tool, len(c.Trials))
		}
		sum := c.FinalSummary()
		if sum.Min <= 0 || math.IsInf(sum.Median, 0) {
			t.Fatalf("%s final summary malformed: %+v", c.Tool, sum)
		}
	}

	cdfs := Fig11(curves)
	for _, series := range cdfs["Transformer"] {
		for _, cdf := range series.Trials {
			if cdf.Len() == 0 {
				t.Fatalf("%s produced an empty CDF", series.Tool)
			}
		}
	}
}

func TestFractionBetterThanRandomBest(t *testing.T) {
	alg := Curve{Trials: [][]core.HistoryPoint{{
		{Value: 1}, {Value: 2}, {Value: 10},
	}}}
	rnd := Curve{Trials: [][]core.HistoryPoint{{
		{Value: 5}, {Value: 7},
	}}}
	if f := FractionBetterThanRandomBest(alg, rnd); math.Abs(f-2.0/3) > 1e-12 {
		t.Fatalf("fraction = %v, want 2/3", f)
	}
}

func TestSurrogateAccuracy(t *testing.T) {
	cfg := tinyCfg()
	res, err := SurrogateAccuracy(context.Background(), cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d kernel results, want 2", len(res))
	}
	names := map[string]bool{}
	for _, r := range res {
		names[r.Kernel] = true
		if r.TrainSize+r.TestSize != 200 {
			t.Fatalf("split sizes wrong: %+v", r)
		}
		if math.IsNaN(r.SpearmanEDP) || r.SpearmanEDP < -1 || r.SpearmanEDP > 1 {
			t.Fatalf("bad Spearman: %+v", r)
		}
		if r.TopQuintile < 0 || r.TopQuintile > 1 {
			t.Fatalf("bad top-quintile overlap: %+v", r)
		}
	}
	if !names["linear"] || !names["matern52"] {
		t.Fatalf("kernels missing: %v", names)
	}
}

func TestDiscussion(t *testing.T) {
	cfg := tinyCfg()
	rows, err := Discussion(context.Background(), cfg, "Transformer")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Config != "Spotlight-Opt" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	for _, r := range rows {
		if r.ThroughputPerJ <= 0 {
			t.Fatalf("non-positive throughput for %s", r.Config)
		}
		if r.ArrayHeight <= 0 || r.ArrayWidth <= 0 {
			t.Fatalf("missing array shape for %s", r.Config)
		}
	}
	if math.Abs(rows[0].RelThroughputPerJ-1) > 1e-9 {
		t.Fatal("Spotlight-Opt relative throughput should be 1")
	}
}

func TestCrossModelAgreement(t *testing.T) {
	cfg := tinyCfg()
	res, err := CrossModelAgreement(context.Background(), cfg, "Transformer", 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layers == 0 {
		t.Fatal("no layers compared")
	}
	if res.MeanTopOverlap < 0 || res.MeanTopOverlap > 1 {
		t.Fatalf("bad overlap: %+v", res)
	}
	// The two models must agree partially, not perfectly — the premise
	// of §VII-F is a second, different model.
	if res.MeanTopOverlap == 1 && res.MeanSpearman == 1 {
		t.Fatal("models agree perfectly — second model is not independent")
	}
	if res.MeanSpearman <= 0 {
		t.Fatalf("models anticorrelated: %+v", res)
	}
}

func TestWriteRows(t *testing.T) {
	var buf bytes.Buffer
	rows := []Row{{Model: "m", Config: "c", Min: 1, Median: 2, Max: 3, Normalized: 0.5}}
	if err := WriteRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "model,config,min,max,median,normalized") ||
		!strings.Contains(out, "m,c,1,3,2,0.5") {
		t.Fatalf("unexpected CSV:\n%s", out)
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTable(&buf, []string{"a", "b"}, [][]string{{"1", "2"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1,2") {
		t.Fatal("row missing")
	}
	if err := WriteTable(&buf, []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("ragged table accepted")
	}
}

func TestAblationStrategiesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, s := range AblationStrategies() {
		names[s.Name()] = true
	}
	for _, want := range []string{"Spotlight", "Spotlight-R", "Spotlight-F",
		"Spotlight-V", "Spotlight-GA", "ConfuciuX", "HASCO"} {
		if !names[want] {
			t.Fatalf("missing strategy %s", want)
		}
	}
}

func TestTopDesignCrossCheck(t *testing.T) {
	cfg := tinyCfg()
	res, err := TopDesignCrossCheck(context.Background(), cfg, "Transformer")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("no top designs retained")
	}
	if res.Entries[0].Rank != 1 {
		t.Fatal("entries not rank-ordered")
	}
	prev := 0.0
	for _, e := range res.Entries {
		if e.Primary < prev {
			t.Fatal("primary objectives not ascending with rank")
		}
		prev = e.Primary
	}
	if res.Spearman < -1 || res.Spearman > 1 {
		t.Fatalf("bad Spearman: %v", res.Spearman)
	}
}

func TestParallelTrialsMatchSerial(t *testing.T) {
	cfg := tinyCfg()
	serial, err := Fig6(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = true
	parallel, err := Fig6(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs:\nserial   %+v\nparallel %+v", i, serial[i], parallel[i])
		}
	}
}

func TestEfficiencyStats(t *testing.T) {
	cfg := tinyCfg()
	curves, err := Fig10(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := EfficiencyStats(curves["Transformer"])
	if len(stats) == 0 {
		t.Fatal("no efficiency stats")
	}
	for _, s := range stats {
		if s.Samples == 0 {
			t.Fatalf("%s has no samples", s.Tool)
		}
		if s.FeasibleFraction < 0 || s.FeasibleFraction > 1 {
			t.Fatalf("%s feasible fraction out of range: %v", s.Tool, s.FeasibleFraction)
		}
		if s.BeatsRandomBest < 0 || s.BeatsRandomBest > 1 {
			t.Fatalf("%s beats-random out of range: %v", s.Tool, s.BeatsRandomBest)
		}
	}
}

func TestSimCheck(t *testing.T) {
	res, err := SimCheck(context.Background(), tinyCfg(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules < 10 {
		t.Fatalf("only %d schedules validated", res.Schedules)
	}
	// The analytical model must agree with the simulator on every
	// schedule under the single-working-set assumption.
	if res.ExactMatches != res.Schedules {
		t.Fatalf("analytical model mismatch: %d/%d exact", res.ExactMatches, res.Schedules)
	}
	if res.CacheSavings.Min < -1e-9 || res.CacheSavings.Max > 1 {
		t.Fatalf("cache savings out of range: %+v", res.CacheSavings)
	}
}

func TestTopDesignCrossCheckPortsToSecondModel(t *testing.T) {
	res, err := TopDesignCrossCheck(context.Background(), tinyCfg(), "Transformer")
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluable == 0 {
		t.Fatal("no top design portable to the second model")
	}
	if res.BestRank < 1 || res.BestRank > len(res.Entries) {
		t.Fatalf("bad best rank %d", res.BestRank)
	}
	for _, e := range res.Entries {
		if e.Secondary == 0 {
			t.Fatalf("entry %d has zero secondary objective", e.Rank)
		}
	}
}

func TestFig7Structure(t *testing.T) {
	cfg := tinyCfg()
	cfg.HWSamples = 10 // the cloud space is >90% over budget; keep headroom
	res, err := Fig7(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EDP) != 4 || len(res.Delay) != 4 {
		t.Fatalf("row counts: EDP=%d delay=%d, want 4 each", len(res.EDP), len(res.Delay))
	}
	for _, r := range append(res.EDP, res.Delay...) {
		if r.Median <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	// Cloud baselines carry the "(cloud)" suffix.
	found := false
	for _, r := range res.EDP {
		if r.Config == "Eyeriss-like (cloud)" {
			found = true
		}
	}
	if !found {
		t.Fatal("cloud baseline rows missing")
	}
}

func TestFig8Structure(t *testing.T) {
	cfg := tinyCfg()
	cfg.Models = []string{"Transformer"} // no held-out models => no General rows
	res, err := Fig8(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]bool{}
	for _, r := range res.Delay {
		configs[r.Config] = true
		if r.Config == "Spotlight-Single" && math.Abs(r.Normalized-1) > 1e-9 {
			t.Fatalf("Single not normalized to 1: %+v", r)
		}
	}
	for _, want := range []string{"Spotlight-Single", "Spotlight-Multi",
		"Eyeriss-like", "NVDLA-like", "MAERI-like"} {
		if !configs[want] {
			t.Fatalf("missing config %s in %v", want, configs)
		}
	}
	if configs["Spotlight-General"] {
		t.Fatal("General scenario should be absent without held-out models")
	}
}

func TestFig9Structure(t *testing.T) {
	cfg := tinyCfg()
	res, err := Fig9(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	imp, ok := res.Importance["Transformer"]
	if !ok || len(imp) != len(res.Features) {
		t.Fatalf("importance shape wrong: %v", res.Importance)
	}
	// Normalized per model: max must be 1.
	maxV := 0.0
	for _, v := range imp {
		if v < 0 || v > 1 {
			t.Fatalf("importance out of [0,1]: %v", v)
		}
		if v > maxV {
			maxV = v
		}
	}
	if math.Abs(maxV-1) > 1e-9 {
		t.Fatalf("max importance = %v, want 1", maxV)
	}
}

func TestKernelSearchComparison(t *testing.T) {
	res, err := KernelSearchComparison(context.Background(), tinyCfg(), "Transformer")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Kernel != "linear" || res[1].Kernel != "matern52" {
		t.Fatalf("unexpected kernels: %+v", res)
	}
	for _, r := range res {
		if r.Summary.Median <= 0 {
			t.Fatalf("%s produced bad objective %v", r.Kernel, r.Summary.Median)
		}
	}
	// §VII-D: the two kernels should land in the same quality class —
	// within an order of magnitude of each other.
	ratio := res[0].Summary.Median / res[1].Summary.Median
	if ratio > 10 || ratio < 0.1 {
		t.Fatalf("kernels differ wildly: linear %v vs matern %v",
			res[0].Summary.Median, res[1].Summary.Median)
	}
}

// faultyTrialStrategy panics when constructing the hardware searcher of
// one specific trial (identified by its derived seed), simulating a
// crashed run inside a multi-trial figure.
type faultyTrialStrategy struct {
	core.Strategy
	badSeed int64
}

func (f faultyTrialStrategy) NewHW(cfg core.RunConfig, rng *rand.Rand) core.HWProposer {
	if cfg.Seed == f.badSeed {
		panic("injected trial failure")
	}
	return f.Strategy.NewHW(cfg, rng)
}

// TestChaosFailedTrialDoesNotAbortFigure: one crashed trial must cost
// one trial's worth of statistics, not the whole figure.
func TestChaosFailedTrialDoesNotAbortFigure(t *testing.T) {
	cfg := tinyCfg().normalized()
	badSeed := cfg.Seed + 0*7919 // trial 0's seed
	strat := faultyTrialStrategy{Strategy: core.NewSpotlight(), badSeed: badSeed}

	models, err := cfg.models()
	if err != nil {
		t.Fatal(err)
	}
	objs, err := cfg.trialObjectives(context.Background(), models, strat)
	if err != nil {
		t.Fatalf("figure aborted on a single failed trial: %v", err)
	}
	if len(objs) != cfg.Trials-1 {
		t.Fatalf("kept %d objectives, want %d (one trial failed)", len(objs), cfg.Trials-1)
	}
	for _, v := range objs {
		if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("bad surviving objective %v", v)
		}
	}
}

// TestChaosAllTrialsFailedSurfacesError: when nothing succeeded there
// is no figure to draw, and the first error must come back.
func TestChaosAllTrialsFailedSurfacesError(t *testing.T) {
	vals := []float64{1, 2}
	errs := []error{errFirst, errFirst}
	if _, err := collectTrials(vals, errs); err == nil {
		t.Fatal("collectTrials with all-failed trials returned no error")
	}
}

var errFirst = errors.New("boom")

// TestChaosFig10RecordsPartialTrials: a failed Fig10 trial keeps its
// error and whatever history it produced instead of aborting the map.
func TestChaosFig10RecordsPartialTrials(t *testing.T) {
	cfg := tinyCfg()
	cfg.HWSamples = 3
	cfg.SWSamples = 4
	out, err := Fig10(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	for model, curves := range out {
		for _, c := range curves {
			if len(c.Errors) != cfg.Trials {
				t.Fatalf("%s/%s: Errors has %d slots, want %d", model, c.Tool, len(c.Errors), cfg.Trials)
			}
			if c.Failed() != 0 {
				t.Errorf("%s/%s: %d trials failed unexpectedly: %v", model, c.Tool, c.Failed(), c.Errors)
			}
		}
	}
}

// infeasibleEval rejects every design, so no search finds a feasible one.
type infeasibleEval struct{}

func (infeasibleEval) Name() string { return "infeasible" }

func (infeasibleEval) Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error) {
	return maestro.Cost{}, maestro.ErrInvalid
}

// TestNoFeasibleTrialIsInf: a trial whose budget finds no feasible
// design completes with objective +Inf instead of failing its figure.
func TestNoFeasibleTrialIsInf(t *testing.T) {
	cfg := tinyCfg()
	cfg.HWSamples, cfg.SWSamples = 2, 2
	cfg.Eval = infeasibleEval{}
	cfg = cfg.normalized()
	models, err := cfg.models()
	if err != nil {
		t.Fatal(err)
	}
	objs, err := cfg.trialObjectives(context.Background(), models, core.NewSpotlight())
	if err != nil {
		t.Fatalf("trialObjectives: %v", err)
	}
	if len(objs) != cfg.Trials {
		t.Fatalf("%d objectives for %d trials", len(objs), cfg.Trials)
	}
	for _, v := range objs {
		if !math.IsInf(v, 1) {
			t.Fatalf("objective %v, want +Inf", v)
		}
	}
}
