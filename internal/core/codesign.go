package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/pool"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

// ErrNoFeasible is returned by Run when a search exhausts its hardware
// budget without a single feasible design — a real outcome for
// restricted tools on hostile spaces (the paper notes Hypermapper often
// failed to terminate at all).
var ErrNoFeasible = errors.New("core: no feasible design found")

// RunConfig describes one co-design run: the workloads, the hardware
// space and budget, the objective, the sample budget (the paper's default
// is 100 hardware samples and 100 software samples per layer), and the
// cost-model backend.
type RunConfig struct {
	Models       []workload.Model
	Space        hw.Space
	Budget       hw.Budget
	Objective    Objective
	HWSamples    int
	SWSamples    int
	SWConstraint sched.Constraint // software space; zero value means Free
	Seed         int64
	// Eval is the cost-model pipeline the search drives — typically an
	// *eval.Pipeline built with eval.FromSpec (backend + middleware
	// stack), though any Evaluator works. When the evaluator can
	// validate its own composition (it implements Validate() error, as
	// pipelines do), normalized() checks it before the run starts, so a
	// mis-assembled pipeline fails fast instead of on sample one.
	Eval Evaluator
	// Workers bounds how many layers are optimized concurrently within
	// one hardware sample; the per-layer software searches are
	// independent given a fixed accelerator, so they scale with cores.
	// 0 means GOMAXPROCS, 1 forces sequential execution. Results are
	// bit-identical at every setting: each (sample, layer) search owns
	// an RNG seeded deterministically from Seed. The Evaluator must be
	// safe for concurrent Evaluate calls when Workers != 1 (the bundled
	// analytical models and the sim backend all are).
	Workers int

	// Tracer, when non-nil, receives structured trace events for every
	// phase of the nested search: run start/end, hardware proposals,
	// incumbent improvements, per-layer software searches, and
	// checkpoint activity. Tracing is observe-only — the History and
	// every downstream CSV are bit-identical with tracing on or off, at
	// any worker count — and the field is deliberately excluded from the
	// checkpoint fingerprint, so traced and untraced runs share
	// checkpoints. The Tracer must be safe for concurrent Emit calls
	// when Workers != 1 (all obs sinks are).
	Tracer obs.Tracer

	// Span, when non-nil, is the parent under which RunContext opens its
	// "run" span (engine passes its per-job "job" span here), rooting the
	// run → trial → hw.propose → sw.layer span tree. Without it — and
	// with a tracer — RunContext opens a root span itself. Like Tracer,
	// spans are observe-only and excluded from the checkpoint
	// fingerprint: the Fingerprint allowlist never sees this field.
	Span *obs.Span

	// Resume, when non-nil, restores the state of a previous run of the
	// *same* configuration and strategy (enforced by fingerprint) and
	// continues from the first hardware sample the checkpoint does not
	// cover. A resumed run is bit-identical to an uninterrupted one.
	Resume *Checkpoint

	// OnCheckpoint, when non-nil, is invoked after every completed
	// hardware sample with a self-contained snapshot of the run, from
	// which Resume can continue. The run never writes what the snapshot
	// holds: its slices are its own, and its designs' Layers are never
	// written once a design is built. A non-nil return aborts the run
	// with the partial Result.
	OnCheckpoint func(*Checkpoint) error

	// slot is the layer slot of the layer whose NewSW receives this
	// config. evaluateHardware sets it on a per-layer copy; the run's
	// own config never carries one, so Result.Config, Fingerprint and
	// checkpoints never see it.
	slot *layerSlot
}

// layerSlot is one layer's search state for the length of a run: the
// generator its searches draw from and the Spotlight proposer built for
// it. For every hardware sample the driver reseeds the generator, hands
// its *rand.Rand view to Strategy.NewSW and passes the slot along, so
// NewSW may reset the slot's proposer in place rather than build
// another, and that proposer draws from the generator directly. A slot
// is written by the driver goroutine in NewSW, then by the one worker
// that searches its layer; the next NewSW runs only after the worker
// pool has returned.
type layerSlot struct {
	rng *xrand.Rand
	sw  *spotlightSW
}

// reseed seeds the slot's generator with seed and returns its view.
// Seed reseeds the PCG state in place, so the generator draws exactly
// what xrand.New(seed) would; only the slot's first reseed allocates.
func (sl *layerSlot) reseed(seed int64) *rand.Rand {
	if sl.rng == nil {
		sl.rng = xrand.New(seed)
	} else {
		sl.rng.Seed(seed)
	}
	return sl.rng.Rand
}

// normalized fills defaults and validates.
func (c RunConfig) normalized() (RunConfig, error) {
	if len(c.Models) == 0 {
		return c, errors.New("core: no models to co-design for")
	}
	for _, m := range c.Models {
		if err := m.Validate(); err != nil {
			return c, err
		}
	}
	if c.Eval == nil {
		return c, errors.New("core: no evaluator configured")
	}
	// Evaluation pipelines know how to check their own composition; a
	// bare backend (or a test double) without Validate is taken as-is.
	if v, ok := c.Eval.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return c, fmt.Errorf("core: invalid evaluator pipeline: %w", err)
		}
	}
	if c.HWSamples <= 0 {
		c.HWSamples = 100
	}
	if c.SWSamples <= 0 {
		c.SWSamples = 100
	}
	if c.SWConstraint.Name == "" {
		c.SWConstraint = sched.Free()
	}
	if c.Space.PEMax == 0 {
		c.Space = hw.EdgeSpace()
	}
	if c.Budget.AreaMM2 == 0 {
		c.Budget = hw.EdgeBudget()
	}
	return c, nil
}

// LayerResult is the optimized schedule and cost for one layer.
type LayerResult struct {
	Model    string
	Layer    workload.Layer
	Schedule sched.Schedule
	Cost     maestro.Cost
	Valid    bool
}

// Design is one complete co-designed solution.
type Design struct {
	Accel     hw.Accel
	Layers    []LayerResult
	Objective float64 // aggregate objective across all models
}

// HistoryPoint records one hardware sample of a search, feeding the
// convergence curves of Figure 10 and the sample CDFs of Figure 11.
type HistoryPoint struct {
	Sample    int           // 1-based hardware sample index
	Elapsed   time.Duration // wall clock since the search started
	Value     float64       // this sample's aggregate objective (+Inf if invalid)
	BestSoFar float64       // best aggregate objective up to this sample
}

// Result is the outcome of a co-design run. Best is the minimum-
// objective feasible design; Frontier is the (objective, area, power)
// pareto set, from which §VI-B's budget-closest selection can be made
// with ParetoFrontier.SelectWithinBudget; Top holds the best 20 distinct
// designs for §VII-F-style cross-medium validation.
type Result struct {
	Tool     string
	Config   RunConfig
	Best     Design
	Frontier []Design
	Top      []Design
	History  []HistoryPoint
}

// topKDesigns is how many distinct designs a run retains for
// cross-medium validation (§VII-F recommends re-evaluating the top ~20).
const topKDesigns = 20

// HWProposer proposes hardware configurations and learns from aggregate
// feedback. err is nil for valid designs; an error wrapping
// maestro.ErrInvalid marks infeasible ones.
type HWProposer interface {
	Suggest() hw.Accel
	Observe(a hw.Accel, objective float64, err error)
}

// SWProposer proposes software schedules for one (accelerator, layer)
// pair and learns from per-sample feedback.
type SWProposer interface {
	Suggest() sched.Schedule
	Observe(s sched.Schedule, objective float64, err error)
}

// Strategy builds the hardware and software searchers for a co-design
// run. Spotlight, its ablation variants, and the prior-work tools are all
// Strategies over the same nested driver, so Figure 10's comparison is
// apples-to-apples.
//
// Concurrency contract: NewSW is always invoked sequentially, in layer
// order, but the returned proposer's Suggest/Observe loop may run on a
// worker goroutine concurrently with other layers' proposers. A proposer
// must therefore confine its mutable state to itself; only the Strategy
// value itself needs internal locking for any cross-layer bookkeeping.
// The rng belongs to the proposer for its layer search, and the driver
// reseeds it for the same layer's search in the next hardware sample,
// so a proposer must not use it once its search is over. NewSW may
// reuse the proposer it built for the same layer in the previous
// hardware sample: that search is over by the time NewSW runs again.
type Strategy interface {
	Name() string
	NewHW(cfg RunConfig, rng *rand.Rand) HWProposer
	NewSW(cfg RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) SWProposer
	// SWBudget returns how many software samples this strategy spends
	// per layer given the configured budget; restricted tools like
	// ConfuciuX evaluate only their few fixed schedules.
	SWBudget(cfg RunConfig) int
}

// modelLayer pairs a layer with its parent model for aggregation.
type modelLayer struct {
	model string
	layer workload.Layer
}

// Run performs the nested layerwise co-design of §VI-A with the given
// strategy: for each hardware sample, every layer's schedule is optimized
// independently by a fresh software searcher; per-model energies and
// delays are aggregated into the objective (DesignObjective, in model
// order), which feeds back into the hardware searcher. Run never stops
// early; use RunContext for cancellation and deadlines.
func Run(cfg RunConfig, strat Strategy) (Result, error) {
	return RunContext(context.Background(), cfg, strat)
}

// RunContext is Run with cooperative cancellation: the context is checked
// between hardware samples and between software samples. When it is
// canceled (or its deadline passes), the run stops at the next check and
// returns the partial Result — every fully completed hardware sample's
// history, frontier, and top-K — together with an error wrapping
// ctx.Err() (context.Canceled or context.DeadlineExceeded). A hardware
// sample whose software search was cut short is discarded rather than
// half-reported, which keeps the partial Result a prefix of what the
// uninterrupted run would have produced.
func RunContext(ctx context.Context, cfg RunConfig, strat Strategy) (Result, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return Result{}, fmt.Errorf("core: %s: %w", strat.Name(), err)
	}
	rng := xrand.New(cfg.Seed).Rand
	hwSearch := strat.NewHW(cfg, rng)
	layers := collectLayers(cfg.Models)
	slots := make([]layerSlot, len(layers))
	swBudget := strat.SWBudget(cfg)

	res := Result{Tool: strat.Name(), Config: cfg}
	res.Best.Objective = math.Inf(1)
	var frontier ParetoFrontier
	top := TopDesigns{K: topKDesigns}
	var observed []Observation
	startSample := 1
	var elapsedOffset time.Duration

	if cfg.Resume != nil {
		st, err := cfg.Resume.restore(cfg, strat, hwSearch)
		if err != nil {
			return Result{}, fmt.Errorf("core: %s: resume: %w", strat.Name(), err)
		}
		res.Best, res.History = st.best, st.history
		frontier, top, observed = st.frontier, st.top, st.obs
		startSample = len(observed) + 1
		elapsedOffset = st.elapsed
	}

	// runSpan is non-nil exactly when tracing is live (a parent span
	// implies an enabled tracer), so it doubles as the emission guard for
	// the run-lifecycle events, which all carry Parent = the run span.
	runSpan := obs.ChildOrRoot(cfg.Span, cfg.Tracer, "run")
	if runSpan != nil {
		runSpan.Emit(obs.Event{Type: obs.RunStart, Detail: strat.Name(), N: cfg.HWSamples})
		if cfg.Resume != nil {
			runSpan.Emit(obs.Event{Type: obs.CheckpointLoad, Sample: startSample - 1})
		}
	}
	finish := func() {
		res.Frontier = frontier.Designs()
		res.Top = top.Designs()
		if runSpan != nil {
			runSpan.Emit(obs.Event{Type: obs.RunEnd, N: len(res.History)})
			runSpan.End()
		}
	}
	// HistoryPoint.Elapsed is wall-clock by contract; the CSV column is
	// documented nondeterministic and dropped before determinism diffs.
	// The reads go through obs, the one package sanctioned to touch the
	// clock.
	start := obs.Now()
	for t := startSample; t <= cfg.HWSamples; t++ {
		if err := ctx.Err(); err != nil {
			finish()
			return res, stoppedErr(strat, t-1, cfg.HWSamples, err)
		}
		trialSpan := runSpan.ChildSample("trial", t)
		proposeSpan := trialSpan.Child("hw.propose")
		setSpan(hwSearch, proposeSpan)
		accel := hwSearch.Suggest()
		setSpan(hwSearch, nil)
		proposeSpan.End()
		if trialSpan != nil {
			trialSpan.Emit(obs.Event{Type: obs.HWPropose, Sample: t, Detail: accel.String()})
		}
		design, derr := evaluateHardware(ctx, cfg, strat, accel, layers, slots, swBudget, t, trialSpan)
		if err := ctx.Err(); err != nil {
			// This sample's software search was cut short; its
			// half-optimized design would not match an uninterrupted
			// run's, so the sample is discarded, not observed.
			trialSpan.End()
			finish()
			return res, stoppedErr(strat, t-1, cfg.HWSamples, err)
		}
		hwSearch.Observe(accel, design.Objective, derr)

		value := design.Objective
		if derr != nil {
			value = math.Inf(1)
		} else {
			frontier.Add(design)
			top.Add(design)
		}
		if value < res.Best.Objective {
			res.Best = design
			if trialSpan != nil {
				trialSpan.Emit(obs.Event{Type: obs.Incumbent, Sample: t, Value: value})
			}
		}
		res.History = append(res.History, HistoryPoint{
			Sample:    t,
			Elapsed:   elapsedOffset + obs.Since(start),
			Value:     value,
			BestSoFar: res.Best.Objective,
		})
		o := Observation{Accel: accel, Valid: derr == nil}
		if derr == nil {
			o.Objective = design.Objective
		}
		observed = append(observed, o)
		if cfg.OnCheckpoint != nil {
			cpStart := obs.Now()
			cp := buildCheckpoint(cfg, strat, observed, &res, &frontier, &top)
			if err := cfg.OnCheckpoint(cp); err != nil {
				trialSpan.End()
				finish()
				return res, fmt.Errorf("core: %s: checkpoint after sample %d: %w",
					strat.Name(), t, err)
			}
			if trialSpan != nil {
				trialSpan.Emit(obs.Event{Type: obs.CheckpointSave, Sample: t,
					DurMS: obs.MS(obs.Since(cpStart))})
			}
		}
		trialSpan.End()
	}
	finish()
	if math.IsInf(res.Best.Objective, 1) {
		return res, fmt.Errorf("%w: %s tried %d hardware samples",
			ErrNoFeasible, strat.Name(), cfg.HWSamples)
	}
	return res, nil
}

// stoppedErr wraps a context error with how far the run got, so callers
// can both errors.Is on Canceled/DeadlineExceeded and report progress.
func stoppedErr(strat Strategy, done, total int, err error) error {
	return fmt.Errorf("core: %s: stopped after %d of %d hardware samples: %w",
		strat.Name(), done, total, err)
}

// InvalidObservation reports whether a (objective, err) pair fed to a
// proposer's Observe marks an infeasible or unusable sample: any error,
// or a non-finite objective (NaN and ±Inf would otherwise poison
// surrogate statistics and population fitness orderings silently).
func InvalidObservation(objective float64, err error) bool {
	return err != nil || math.IsNaN(objective) || math.IsInf(objective, 0)
}

// deriveSeed mixes the run seed with stream indices (hardware sample,
// layer) through a splitmix64-style finalizer, giving every per-layer
// search an independent, decorrelated RNG that is bit-reproducible at
// any worker count.
func deriveSeed(seed int64, streams ...int64) int64 {
	z := uint64(seed)
	for _, s := range streams {
		z ^= uint64(s) + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// evaluateHardware runs the per-layer software optimization for one
// hardware sample and aggregates the objective. The layer searches are
// independent given the fixed accelerator, so they run on a bounded
// worker pool (cfg.Workers wide); every layer owns an RNG seeded from
// (Seed, sample, layer), which makes the outcome identical whether the
// layers run sequentially or in parallel. slots holds one layer slot
// per layer, kept by the caller across hardware samples. It returns an
// error wrapping maestro.ErrInvalid when the hardware is out of budget,
// structurally invalid, or has a layer with no feasible schedule (the
// lowest-index infeasible layer is reported, for determinism).
func evaluateHardware(ctx context.Context, cfg RunConfig, strat Strategy, accel hw.Accel,
	layers []modelLayer, slots []layerSlot, swBudget, sample int, trialSpan *obs.Span) (Design, error) {

	design := Design{Accel: accel, Objective: math.Inf(1)}
	if err := accel.Validate(); err != nil {
		return design, fmt.Errorf("%w: %v", maestro.ErrInvalid, err)
	}
	if err := cfg.Budget.Check(accel); err != nil {
		return design, fmt.Errorf("%w: %v", maestro.ErrInvalid, err)
	}

	// Proposers are built in layer order, as the Strategy contract
	// promises; only the sampling loops run concurrently.
	sws := make([]SWProposer, len(layers))
	lcfg := cfg
	for i, ml := range layers {
		lcfg.slot = &slots[i]
		rng := lcfg.slot.reseed(deriveSeed(cfg.Seed, int64(sample), int64(i)))
		sws[i] = strat.NewSW(lcfg, rng, accel, ml.layer)
	}
	design.Layers = make([]LayerResult, len(layers))
	if err := pool.RunCtx(ctx, len(layers), cfg.Workers, func(i int) {
		// One sw.layer span per layer search, the only record of it in a
		// trace; each lives entirely on its worker goroutine, and
		// everything the eval stack emits below hangs off it. The
		// model/layer label is built only when there is a span to carry it.
		var layerSpan *obs.Span
		if trialSpan != nil {
			layerSpan = trialSpan.ChildLabel("sw.layer", layers[i].model+"/"+layers[i].layer.Name)
		}
		setSpan(sws[i], layerSpan)
		lr := runLayerSearch(ctx, cfg, sws[i], accel, layers[i].layer, swBudget, layerSpan)
		lr.Model = layers[i].model
		design.Layers[i] = lr
		setSpan(sws[i], nil)
		layerSpan.End()
	}); err != nil {
		// Canceled mid-sample; the caller discards this design.
		return design, err
	}

	for _, lr := range design.Layers {
		if !lr.Valid {
			return design, fmt.Errorf("%w: layer %s has no feasible schedule on %s",
				maestro.ErrInvalid, lr.Layer.Name, accel)
		}
	}
	total := DesignObjective(cfg.Objective, design.Layers)
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return design, fmt.Errorf("%w: non-finite aggregate objective on %s",
			maestro.ErrInvalid, accel)
	}
	design.Objective = total
	return design, nil
}

// OptimizeLayer searches one layer's software space on fixed hardware,
// spending `budget` cost-model evaluations, and returns the best schedule
// found (Valid false if no sample was feasible) and the proposer it drove.
// When ctx is done the search stops between rounds and the error is
// ctx.Err(): the cut-short result is not the full budget's.
func OptimizeLayer(ctx context.Context, cfg RunConfig, strat Strategy, rng *rand.Rand, accel hw.Accel,
	layer workload.Layer, budget int) (LayerResult, SWProposer, error) {
	sp := obs.ChildOrRoot(cfg.Span, cfg.Tracer, "sw.layer")
	defer sp.End()
	sw := strat.NewSW(cfg, rng, accel, layer)
	setSpan(sw, sp)
	lr := runLayerSearch(ctx, cfg, sw, accel, layer, budget, sp)
	setSpan(sw, nil)
	return lr, sw, ctx.Err()
}

// runLayerSearch drives one software proposer through its sample budget,
// stopping early (with the best result so far) when ctx is canceled. A
// cost whose fields are not all finite is classified invalid rather than
// allowed to poison the proposer's statistics or become a NaN "best".
//
// The search runs in rounds: per round it draws the round's suggestions
// into a scratch slice reused across rounds, evaluates them, and
// delivers the Observe feedback in suggestion order. A proposer that
// declares feedback-independent rounds (RoundProposer) sets the round
// size, capped at the remaining budget; any other proposer runs rounds
// of one — strict Suggest/Observe interleaving. A larger round goes
// through one EvaluateBatchSpan call; a round of one goes through
// EvaluateSpan into result scratch the search owns, so it allocates no
// result slices. Because a round by definition draws the same RNG stream
// whether or not Observe calls are interleaved, and because a batch is
// bit-identical to per-item evaluation, both round sizes produce the
// same LayerResult bit for bit (the search and core tests prove it by
// hiding RoundSize behind a wrapper). Cancellation is checked between
// rounds; a canceled layer search is discarded by the caller either way.
func runLayerSearch(ctx context.Context, cfg RunConfig, sw SWProposer, accel hw.Accel,
	layer workload.Layer, budget int, sp *obs.Span) LayerResult {

	rp, _ := sw.(RoundProposer)
	best := LayerResult{Layer: layer}
	bestObj := math.Inf(1)
	var (
		ss    []sched.Schedule
		cost1 [1]maestro.Cost // a round of one's result
		err1  [1]error
	)
	for done := 0; done < budget; {
		if ctx.Err() != nil {
			break
		}
		n := 1
		if rp != nil {
			n = max(rp.RoundSize(), 1)
		}
		n = min(n, budget-done)
		ss = ss[:0]
		for j := 0; j < n; j++ {
			ss = append(ss, sw.Suggest())
		}
		costs, errs := cost1[:], err1[:]
		if n == 1 {
			cost1[0], err1[0] = EvaluateSpan(cfg.Eval, sp, accel, ss[0], layer)
		} else {
			costs, errs = EvaluateBatchSpan(cfg.Eval, sp, accel, ss, layer)
		}
		for j, s := range ss {
			cost, err := costs[j], errs[j]
			obj := math.Inf(1)
			if err == nil {
				obj = cfg.Objective.LayerCost(cost)
			}
			if err == nil && (!cost.Finite() || math.IsNaN(obj) || math.IsInf(obj, 0)) {
				err = fmt.Errorf("%w: evaluator returned non-finite cost for layer %s",
					maestro.ErrInvalid, layer.Name)
			}
			if err != nil {
				sw.Observe(s, math.Inf(1), err)
				continue
			}
			sw.Observe(s, obj, nil)
			if obj < bestObj {
				bestObj = obj
				best.Schedule = s
				best.Cost = cost
				best.Valid = true
			}
		}
		done += n
	}
	return best
}

// OptimizeSoftware runs only the software half of the co-design on a
// fixed accelerator: daBO_SW (or the strategy's software searcher) per
// layer. This is how the paper evaluates hand-designed baselines
// ("under our layerwise software optimizer") and the multi-model
// generalization scenario of §VII-B. A done ctx returns its error, not
// a design whose layer searches were cut short.
func OptimizeSoftware(ctx context.Context, cfg RunConfig, strat Strategy, accel hw.Accel) (Design, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return Design{}, err
	}
	sp := obs.ChildOrRoot(cfg.Span, cfg.Tracer, "run")
	defer sp.End()
	layers := collectLayers(cfg.Models)
	design, err := evaluateHardware(ctx, cfg, strat, accel,
		layers, make([]layerSlot, len(layers)), strat.SWBudget(cfg), 0, sp)
	if cerr := ctx.Err(); cerr != nil {
		return Design{}, fmt.Errorf("core: %s: software search stopped: %w", strat.Name(), cerr)
	}
	return design, err
}

// collectLayers flattens the models' unique layers, tagged by model.
func collectLayers(models []workload.Model) []modelLayer {
	var out []modelLayer
	for _, m := range models {
		for _, l := range m.Layers {
			out = append(out, modelLayer{model: m.Name, layer: l})
		}
	}
	return out
}

// modelTotal is one model's repeat-weighted energy and delay.
type modelTotal struct {
	model         string
	energy, delay float64
}

// modelTotals sums layer costs per model in one ordered pass: models in
// the order their first layer appears, layers in slice order, so every
// float sum, and every objective built on them, repeats bit for bit.
func modelTotals(layers []LayerResult) []modelTotal {
	var out []modelTotal
	for _, lr := range layers {
		i := slices.IndexFunc(out, func(t modelTotal) bool { return t.model == lr.Model })
		if i < 0 {
			i, out = len(out), append(out, modelTotal{model: lr.Model})
		}
		rep := float64(lr.Layer.Repeat)
		out[i].energy += rep * lr.Cost.EnergyNJ
		out[i].delay += rep * lr.Cost.DelayCycles
	}
	return out
}

// DesignObjective is the aggregate objective of a design's layers, the
// value the hardware searcher learns from: each model's
// AggregateObjective over its totals, summed in model order.
func DesignObjective(o Objective, layers []LayerResult) (total float64) {
	for _, t := range modelTotals(layers) {
		total += AggregateObjective(o, t.energy, t.delay)
	}
	return total
}

// ModelObjectives splits a design's aggregate objective back into
// per-model values, for multi-model reporting (Figure 8).
func ModelObjectives(o Objective, d Design) map[string]float64 {
	out := map[string]float64{}
	for _, t := range modelTotals(d.Layers) {
		out[t.model] = AggregateObjective(o, t.energy, t.delay)
	}
	return out
}
