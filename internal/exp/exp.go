// Package exp is the evaluation harness: one driver per table/figure of
// the paper's §VII, producing the same rows and series the paper reports.
// Each driver is deterministic given its Config seed, and each has a
// bench in the repository root regenerating it. Once its context is
// done, a driver stops at its next sample and returns an error wrapping
// ctx.Err(), never a figure built from the trials that finished.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Fig6     edge single-model co-design vs baselines and prior tools
//	Fig7     cloud-scale single-model co-design (EDP and delay)
//	Fig8     single- vs multi-model vs generalization co-design
//	Fig9     daBO_SW feature permutation importance per model
//	Fig10    convergence over time for seven search algorithms
//	Fig11    CDFs of hardware sample quality (derived from Fig10 runs)
//	Surrogate   §VII-D surrogate accuracy (Spearman ρ, top-quintile hits)
//	Discussion  §VII-C throughput/J and reuse vs hand-designed
//	Timeloop    §VII-F rank agreement between the two analytical models
package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"spotlight/internal/core"
	"spotlight/internal/eval"
	"spotlight/internal/hw"
	"spotlight/internal/obs"
	"spotlight/internal/pool"
	"spotlight/internal/stats"
	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

// Config scales the experiments. The paper's settings are 100 hardware
// samples, 100 software samples per layer, and 10 trials; the defaults
// here are smaller so the full suite regenerates in minutes — pass
// Paper() for the full-scale settings.
type Config struct {
	Scale     string // "edge" or "cloud"
	Objective core.Objective
	HWSamples int
	SWSamples int
	Trials    int
	Seed      int64
	Models    []string // model names; empty means all five
	// Eval is the cost model every trial and figure run under this
	// Config shares (the engine passes its spec-built pipeline, so its
	// memo cache deduplicates across trials); nil means a plain pipeline
	// over the primary analytical model.
	Eval core.Evaluator
	// Parallel runs independent trials concurrently. Results are
	// identical either way (each trial owns its seed); only wall-clock
	// changes. The artifact appendix notes the paper's own runs were
	// parallelized across a cluster the same way.
	Parallel bool
	// Workers bounds how many layers each run optimizes concurrently
	// within one hardware sample (core.RunConfig.Workers). Results are
	// bit-identical at every setting; 0 means GOMAXPROCS, 1 sequential.
	Workers int
	// Tracer receives structured trace events from every run this config
	// drives (core.RunConfig.Tracer) and from the default evaluation
	// pipeline built when Eval is nil. Tracing is observe-only: every CSV
	// is byte-identical with it on or off.
	Tracer obs.Tracer
	// Span, when set, parents every run this config drives: each
	// core.RunContext opens its "run" span as a child of Span (the
	// engine's per-step exp.step span). Observe-only, like Tracer.
	Span *obs.Span
}

// Default returns the scaled-down configuration used by tests and the
// quick benchmark suite.
func Default() Config {
	return Config{
		Scale:     "edge",
		Objective: core.MinDelay,
		HWSamples: 24,
		SWSamples: 24,
		Trials:    3,
		Seed:      1,
	}
}

// Paper returns the paper-scale configuration (§VII: 100/100 samples,
// 10 trials).
func Paper() Config {
	c := Default()
	c.HWSamples, c.SWSamples, c.Trials = 100, 100, 10
	return c
}

// normalized fills defaults, including a plain maestro pipeline carrying
// the config's tracer when no evaluator was supplied.
func (c Config) normalized() Config {
	if c.Scale == "" {
		c.Scale = "edge"
	}
	if c.HWSamples <= 0 {
		c.HWSamples = 24
	}
	if c.SWSamples <= 0 {
		c.SWSamples = 24
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Eval == nil {
		c.Eval = eval.MustFromSpec("maestro", eval.SpecOptions{Tracer: c.Tracer})
	}
	return c
}

// models resolves the configured model list.
func (c Config) models() ([]workload.Model, error) {
	if len(c.Models) == 0 {
		return workload.Models(), nil
	}
	out := make([]workload.Model, 0, len(c.Models))
	for _, name := range c.Models {
		m, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// runConfig builds the core.RunConfig for a set of models and a trial.
func (c Config) runConfig(models []workload.Model, trial int) (core.RunConfig, error) {
	scale, err := hw.ScaleByName(c.Scale)
	if err != nil {
		return core.RunConfig{}, err
	}
	return core.RunConfig{
		Models:    models,
		Space:     scale.Space,
		Budget:    scale.Budget,
		Objective: c.Objective,
		HWSamples: c.HWSamples,
		SWSamples: c.SWSamples,
		Seed:      c.Seed + int64(trial)*7919, // distinct, reproducible per trial
		Eval:      c.Eval,
		Workers:   c.Workers,
		Tracer:    c.Tracer,
		Span:      c.Span,
	}, nil
}

// Row is one bar of a grouped bar chart: a (model, configuration) pair
// with min/median/max over trials and the median normalized to
// Spotlight's median, matching the CSV format of the paper's
// compare-ae.sh script.
type Row struct {
	Model      string
	Config     string
	Min        float64
	Median     float64
	Max        float64
	Normalized float64 // median / Spotlight's median for the same model
}

// normalizeRows fills the Normalized column against the named reference
// configuration within each model group.
func normalizeRows(rows []Row, reference string) {
	ref := map[string]float64{}
	for _, r := range rows {
		if r.Config == reference {
			ref[r.Model] = r.Median
		}
	}
	for i := range rows {
		if v, ok := ref[rows[i].Model]; ok && v != 0 {
			rows[i].Normalized = rows[i].Median / v
		}
	}
}

// forTrials runs fn once per trial index on the shared bounded worker
// pool — GOMAXPROCS-wide when Parallel is set, sequential otherwise —
// and returns each trial's error in its slot. A panicking trial is
// recovered into its error slot here, before the pool's own panic
// containment would poison the remaining trials: one crashed run should
// cost one bar of a figure, not the whole figure. A done context is not
// a trial failure: forTrials then returns ctx.Err(), checked after the
// pool because a context done during the last trials cut them short
// without stopping dispatch, and the caller builds no figure.
func (c Config) forTrials(ctx context.Context, fn func(trial int) error) ([]error, error) {
	workers := 1
	if c.Parallel {
		workers = 0 // pool default: GOMAXPROCS
	}
	errs := make([]error, c.Trials)
	_ = pool.RunCtx(ctx, c.Trials, workers, func(t int) {
		defer func() {
			if r := recover(); r != nil {
				errs[t] = fmt.Errorf("exp: trial %d panicked: %v", t, r)
			}
		}()
		errs[t] = fn(t)
	})
	return errs, ctx.Err()
}

// collectTrials keeps the values of the trials that succeeded. It fails
// only when every trial failed — degraded statistics over fewer trials
// beat losing a whole figure to one flaky run.
func collectTrials(vals []float64, errs []error) ([]float64, error) {
	kept := make([]float64, 0, len(vals))
	var firstErr error
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		kept = append(kept, vals[i])
	}
	if len(kept) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return kept, nil
}

// trialObjectives runs a strategy for cfg.Trials independent trials on
// the given models and returns the best objectives of the trials that
// completed. A trial whose budget found no feasible design completed:
// its objective is +Inf, which a figure shows as "inf", instead of
// failing the figure when every trial of a tool ends that way.
func (c Config) trialObjectives(ctx context.Context, models []workload.Model, strat core.Strategy) ([]float64, error) {
	return c.objectives(ctx, models, func(rc core.RunConfig, t int) (float64, error) {
		res, err := core.RunContext(ctx, rc, strat)
		if errors.Is(err, core.ErrNoFeasible) {
			return res.Best.Objective, nil
		}
		if err != nil {
			return 0, fmt.Errorf("exp: %s trial %d: %w", strat.Name(), t, err)
		}
		return res.Best.Objective, nil
	})
}

// baselineObjectives evaluates a hand-designed baseline under the
// layerwise software optimizer (daBO_SW within the baseline's dataflow
// constraint), per §VII's methodology, for cfg.Trials trials.
func (c Config) baselineObjectives(ctx context.Context, models []workload.Model, b hw.Baseline) ([]float64, error) {
	return c.objectives(ctx, models, func(rc core.RunConfig, t int) (float64, error) {
		rc.SWConstraint = b.Constraint
		design, err := core.OptimizeSoftware(ctx, rc, core.NewSpotlight(), b.Accel)
		if err != nil {
			return 0, fmt.Errorf("exp: baseline %s trial %d: %w", b.Name, t, err)
		}
		return design.Objective, nil
	})
}

// objectives runs objective once per trial on that trial's run
// configuration and keeps the values of the trials that completed.
func (c Config) objectives(ctx context.Context, models []workload.Model,
	objective func(rc core.RunConfig, trial int) (float64, error)) ([]float64, error) {
	out := make([]float64, c.Trials)
	errs, err := c.forTrials(ctx, func(t int) error {
		rc, err := c.runConfig(models, t)
		if err != nil {
			return err
		}
		out[t], err = objective(rc, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	return collectTrials(out, errs)
}

// summaryRow converts per-trial objectives into a Row.
func summaryRow(model, config string, objectives []float64) Row {
	s := stats.Summarize(objectives)
	return Row{Model: model, Config: config, Min: s.Min, Median: s.Median, Max: s.Max}
}

// rngFor returns a seeded generator derived from the config seed and a
// stream label, keeping independent parts of an experiment decorrelated
// but reproducible.
func (c Config) rngFor(stream int64) *rand.Rand {
	return xrand.New(c.Seed*1_000_003 + stream)
}
