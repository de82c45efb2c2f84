package exp

import (
	"context"
	"fmt"

	"spotlight/internal/core"
	"spotlight/internal/stats"
	"spotlight/internal/workload"
)

// Fig9Result is the per-model relative importance of each daBO_SW
// feature, normalized so each model's most important feature is 1 —
// exactly how Figure 9 presents it.
type Fig9Result struct {
	Features   []string
	Importance map[string][]float64 // model name -> normalized importances
}

// Fig9 reproduces Figure 9: for each model, run single-model co-design,
// then compute permutation importance of every software feature on the
// surrogates trained while scheduling the winning accelerator's layers,
// averaged across layers.
func Fig9(ctx context.Context, cfg Config) (Fig9Result, error) {
	cfg = cfg.normalized()
	models, err := cfg.models()
	if err != nil {
		return Fig9Result{}, err
	}
	out := Fig9Result{Importance: map[string][]float64{}}
	for _, m := range models {
		names, imp, err := modelImportance(ctx, cfg, m)
		if err != nil {
			return Fig9Result{}, err
		}
		if out.Features == nil {
			out.Features = names
		}
		out.Importance[m.Name] = stats.Normalize(imp)
	}
	return out, nil
}

// modelImportance co-designs an accelerator for the model, then runs one
// fresh daBO_SW per layer on that accelerator, measuring feature
// importance on each layer's trained surrogate and averaging.
func modelImportance(ctx context.Context, cfg Config, m workload.Model) ([]string, []float64, error) {
	rc, err := cfg.runConfig([]workload.Model{m}, 0)
	if err != nil {
		return nil, nil, err
	}
	strat := core.NewSpotlight()
	res, err := core.RunContext(ctx, rc, strat)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: fig9 co-design for %s: %w", m.Name, err)
	}

	rng := cfg.rngFor(11)
	var names []string
	var total []float64
	layersCounted := 0
	for _, l := range m.Layers {
		_, sw, err := core.OptimizeLayer(ctx, rc, strat, rng, res.Best.Accel, l, rc.SWSamples)
		if err != nil {
			return nil, nil, err
		}
		n, imp, ok := core.SWImportance(sw, rng)
		if !ok {
			continue
		}
		if names == nil {
			names = n
			total = make([]float64, len(imp))
		}
		for i, v := range imp {
			total[i] += v
		}
		layersCounted++
	}
	if layersCounted == 0 {
		return nil, nil, fmt.Errorf("exp: fig9: no surrogate trained for %s", m.Name)
	}
	for i := range total {
		total[i] /= float64(layersCounted)
	}
	return names, total, nil
}
