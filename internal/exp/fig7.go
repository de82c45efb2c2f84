package exp

import (
	"context"
	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/workload"
)

// Fig7Result carries both halves of Figure 7: cloud-scale co-design
// minimizing EDP (top graphs) and delay (bottom graphs), against the
// scaled-up hand-designed accelerators. The prior tools are absent, as in
// the paper ("they do not support cloud-scale accelerators
// out-of-the-box").
type Fig7Result struct {
	EDP   []Row
	Delay []Row
}

// Fig7 reproduces Figure 7. Per the paper, the only change from the edge
// experiments is the parameter ranges — the feature space and BO
// configuration are untouched.
func Fig7(ctx context.Context, cfg Config) (Fig7Result, error) {
	cfg = cfg.normalized()
	cfg.Scale = "cloud"
	var out Fig7Result
	cfg.Objective = core.MinEDP
	var err error
	if out.EDP, err = fig7Half(ctx, cfg); err != nil {
		return out, err
	}
	cfg.Objective = core.MinDelay
	if out.Delay, err = fig7Half(ctx, cfg); err != nil {
		return out, err
	}
	return out, nil
}

func fig7Half(ctx context.Context, cfg Config) ([]Row, error) {
	models, err := cfg.models()
	if err != nil {
		return nil, err
	}
	scale, err := hw.ScaleByName(cfg.Scale)
	if err != nil {
		return nil, err
	}
	baselines := scale.Baselines()
	var rows []Row
	for _, m := range models {
		single := []workload.Model{m}
		objs, err := cfg.trialObjectives(ctx, single, core.NewSpotlight())
		if err != nil {
			return nil, err
		}
		rows = append(rows, summaryRow(m.Name, "Spotlight", objs))
		for _, b := range baselines {
			objs, err := cfg.baselineObjectives(ctx, single, b)
			if err != nil {
				return nil, err
			}
			rows = append(rows, summaryRow(m.Name, b.Name, objs))
		}
	}
	normalizeRows(rows, "Spotlight")
	return rows, nil
}
