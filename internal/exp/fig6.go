package exp

import (
	"context"
	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/search"
	"spotlight/internal/workload"
)

// Fig6 reproduces Figure 6: edge-scale single-model co-design, comparing
// Spotlight against the three hand-designed accelerators (each scheduled
// by daBO_SW under its own dataflow constraint) and the two prior
// HW/SW co-design tools (ConfuciuX and HASCO). The paper's figure reports
// delay; the Objective in cfg selects delay or EDP (the paper notes the
// EDP trends are identical).
//
// One Row per (model, configuration); error bars are min/max of trials.
func Fig6(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.normalized()
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

		for _, tool := range []core.Strategy{search.NewConfuciuX(), search.NewHASCO()} {
			if !toolSupports(tool.Name(), m.Name) {
				continue // the paper's missing bars: tool limitations
			}
			objs, err := cfg.trialObjectives(ctx, single, tool)
			if err != nil {
				return nil, err
			}
			rows = append(rows, summaryRow(m.Name, tool.Name(), objs))
		}
	}
	normalizeRows(rows, "Spotlight")
	return rows, nil
}

// toolSupports mirrors the input limitations the paper reports for the
// prior tools: HASCO does not accept VGG16, MnasNet, or Transformer, and
// ConfuciuX cannot optimize Transformer, hence the missing bars in
// Figure 6.
func toolSupports(tool, model string) bool {
	switch tool {
	case "HASCO":
		switch model {
		case "VGG16", "MnasNet", "Transformer":
			return false
		}
	case "ConfuciuX":
		if model == "Transformer" {
			return false
		}
	}
	return true
}
