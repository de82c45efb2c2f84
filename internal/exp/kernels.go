package exp

import (
	"context"
	"spotlight/internal/core"
	"spotlight/internal/gp"
	"spotlight/internal/stats"
	"spotlight/internal/workload"
)

// KernelSearchResult compares end-to-end search quality under different
// surrogate kernels — the §VII-D claim that "when we run Spotlight with
// the Matérn kernel we find no noticeable difference in search quality,
// so we opt for the simpler linear kernel."
type KernelSearchResult struct {
	Kernel  string
	Summary stats.Summary // per-trial best objectives
}

// KernelSearchComparison runs full Spotlight co-designs on one model
// with the linear and the Matérn-5/2 kernels, over cfg.Trials trials
// each.
func KernelSearchComparison(ctx context.Context, cfg Config, modelName string) ([]KernelSearchResult, error) {
	cfg = cfg.normalized()
	m, err := workload.ByName(modelName)
	if err != nil {
		return nil, err
	}
	kernels := []gp.Kernel{
		gp.Linear{Bias: 1},
		gp.Matern52{LengthScale: 1, Variance: 1},
	}
	var out []KernelSearchResult
	for _, k := range kernels {
		strat := core.NewSpotlight()
		strat.Kernel = k
		objs, err := cfg.trialObjectives(ctx, []workload.Model{m}, strat)
		if err != nil {
			return nil, err
		}
		out = append(out, KernelSearchResult{Kernel: k.Name(), Summary: stats.Summarize(objs)})
	}
	return out, nil
}
