package exp

import (
	"context"
	"fmt"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/workload"
)

// Fig8Result carries both halves of Figure 8 (EDP and delay) for the
// three Spotlight deployment scenarios of §VII-B — Spotlight-Single
// (per-model co-design), Spotlight-Multi (one accelerator co-designed
// with all models), Spotlight-General (co-designed with three models,
// evaluated on the held-out two) — alongside the hand-designed baselines.
type Fig8Result struct {
	EDP   []Row
	Delay []Row
}

// generalDesignModels are the design-time models of the generalization
// scenario; the held-out models are the remaining two.
var generalDesignModels = []string{"VGG16", "ResNet-50", "MobileNetV2"}

// Fig8 reproduces Figure 8.
func Fig8(ctx context.Context, cfg Config) (Fig8Result, error) {
	cfg = cfg.normalized()
	var out Fig8Result
	cfg.Objective = core.MinEDP
	var err error
	if out.EDP, err = fig8Half(ctx, cfg); err != nil {
		return out, err
	}
	cfg.Objective = core.MinDelay
	if out.Delay, err = fig8Half(ctx, cfg); err != nil {
		return out, err
	}
	return out, nil
}

func fig8Half(ctx context.Context, cfg Config) ([]Row, error) {
	models, err := cfg.models()
	if err != nil {
		return nil, err
	}

	perModel := map[string]map[string][]float64{} // model -> config -> trials
	record := func(model, config string, v float64) {
		if perModel[model] == nil {
			perModel[model] = map[string][]float64{}
		}
		perModel[model][config] = append(perModel[model][config], v)
	}

	// Spotlight-Single: one co-design per model.
	for _, m := range models {
		objs, err := cfg.trialObjectives(ctx, []workload.Model{m}, core.NewSpotlight())
		if err != nil {
			return nil, err
		}
		for _, v := range objs {
			record(m.Name, "Spotlight-Single", v)
		}
	}

	// Spotlight-Multi: co-design with every model simultaneously, then
	// re-run the layerwise software optimizer per model on the result.
	for t := 0; t < cfg.Trials; t++ {
		accel, err := codesignAccel(ctx, cfg, models, t)
		if err != nil {
			return nil, err
		}
		for _, m := range models {
			v, err := softwareOnlyObjective(ctx, cfg, accel, m, t)
			if err != nil {
				return nil, err
			}
			record(m.Name, "Spotlight-Multi", v)
		}
	}

	// Spotlight-General: co-design with the three design-time models and
	// evaluate the held-out models on the resulting accelerator.
	designSet := map[string]bool{}
	for _, n := range generalDesignModels {
		designSet[n] = true
	}
	var design []workload.Model
	var heldOut []workload.Model
	for _, m := range models {
		if designSet[m.Name] {
			design = append(design, m)
		} else {
			heldOut = append(heldOut, m)
		}
	}
	if len(design) > 0 && len(heldOut) > 0 {
		for t := 0; t < cfg.Trials; t++ {
			accel, err := codesignAccel(ctx, cfg, design, t)
			if err != nil {
				return nil, err
			}
			for _, m := range heldOut {
				v, err := softwareOnlyObjective(ctx, cfg, accel, m, t)
				if err != nil {
					return nil, err
				}
				record(m.Name, "Spotlight-General", v)
			}
		}
	}

	// Hand-designed baselines (programmable, designed to generalize).
	scale, err := hw.ScaleByName(cfg.Scale)
	if err != nil {
		return nil, err
	}
	baselines := scale.Baselines()
	for _, m := range models {
		for _, b := range baselines {
			objs, err := cfg.baselineObjectives(ctx, []workload.Model{m}, b)
			if err != nil {
				return nil, err
			}
			for _, v := range objs {
				record(m.Name, b.Name, v)
			}
		}
	}

	order := []string{"Spotlight-Single", "Spotlight-Multi", "Spotlight-General",
		"Eyeriss-like", "NVDLA-like", "MAERI-like"}
	var rows []Row
	for _, m := range models {
		for _, config := range order {
			if objs := perModel[m.Name][config]; len(objs) > 0 {
				rows = append(rows, summaryRow(m.Name, config, objs))
			}
		}
	}
	normalizeRows(rows, "Spotlight-Single")
	return rows, nil
}

// codesignAccel runs one Spotlight co-design trial over the given models
// and returns the winning accelerator.
func codesignAccel(ctx context.Context, cfg Config, models []workload.Model, trial int) (hw.Accel, error) {
	rc, err := cfg.runConfig(models, trial)
	if err != nil {
		return hw.Accel{}, err
	}
	res, err := core.RunContext(ctx, rc, core.NewSpotlight())
	if err != nil {
		return hw.Accel{}, fmt.Errorf("exp: multi-model co-design trial %d: %w", trial, err)
	}
	return res.Best.Accel, nil
}

// softwareOnlyObjective reruns daBO_SW for one model on a fixed
// accelerator and returns the model's objective.
func softwareOnlyObjective(ctx context.Context, cfg Config, accel hw.Accel, m workload.Model, trial int) (float64, error) {
	rc, err := cfg.runConfig([]workload.Model{m}, trial)
	if err != nil {
		return 0, err
	}
	design, err := core.OptimizeSoftware(ctx, rc, core.NewSpotlight(), accel)
	if err != nil {
		return 0, fmt.Errorf("exp: software-only pass for %s: %w", m.Name, err)
	}
	return design.Objective, nil
}
