package exp

import (
	"context"
	"spotlight/internal/eval"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/stats"
	"spotlight/internal/workload"
)

// CrossModelResult is the §VII-F cross-validation: for each layer,
// `samplesPerLayer` random schedules are costed under both analytical
// models, the results are ranked, and the overlap of the top-20 and
// bottom-20 sets is measured. The paper reports ~35% average overlap —
// partial agreement showing the search does not overfit one model.
type CrossModelResult struct {
	Model          string
	Layers         int
	MeanTopOverlap float64 // average overlap of best-20% sets
	MeanBotOverlap float64 // average overlap of worst-20% sets
	MeanSpearman   float64 // average rank correlation across layers
}

// CrossModelAgreement runs the §VII-F experiment for one DL model.
func CrossModelAgreement(ctx context.Context, cfg Config, modelName string, samplesPerLayer int) (CrossModelResult, error) {
	cfg = cfg.normalized()
	if samplesPerLayer < 20 {
		samplesPerLayer = 20
	}
	m, err := workload.ByName(modelName)
	if err != nil {
		return CrossModelResult{}, err
	}
	scale, err := hw.ScaleByName(cfg.Scale)
	if err != nil {
		return CrossModelResult{}, err
	}

	// Both models come from the backend registry, so this comparison
	// exercises the same constructors every other consumer uses.
	primary, err := eval.Open("maestro")
	if err != nil {
		return CrossModelResult{}, err
	}
	second, err := eval.Open("timeloop")
	if err != nil {
		return CrossModelResult{}, err
	}
	free := sched.Free()
	rng := cfg.rngFor(17)

	res := CrossModelResult{Model: m.Name}
	var sumTop, sumBot, sumRho float64
	for _, l := range m.Layers {
		var pv, sv []float64
		attempts := 0
		for len(pv) < samplesPerLayer && attempts < samplesPerLayer*50 {
			if err := ctx.Err(); err != nil {
				return CrossModelResult{}, err
			}
			attempts++
			a := scale.Space.Random(rng)
			// Halved budgets keep most samples inside both models'
			// feasible regions (the second model double-buffers).
			s := free.Random(rng, l, a.RFBytesPerPE()/4, a.L2Bytes()/4)
			cp, err1 := primary.Evaluate(a, s, l)
			cs, err2 := second.Evaluate(a, s, l)
			if err1 != nil || err2 != nil {
				continue
			}
			pv = append(pv, cfg.Objective.LayerCost(cp))
			sv = append(sv, cfg.Objective.LayerCost(cs))
		}
		if len(pv) < samplesPerLayer/2 {
			continue // layer too constrained to sample; skip like the paper's invalid regions
		}
		sumTop += stats.TopQuantileOverlap(pv, sv, 0.2)
		sumBot += stats.BottomQuantileOverlap(pv, sv, 0.2)
		sumRho += stats.Spearman(pv, sv)
		res.Layers++
	}
	if res.Layers > 0 {
		res.MeanTopOverlap = sumTop / float64(res.Layers)
		res.MeanBotOverlap = sumBot / float64(res.Layers)
		res.MeanSpearman = sumRho / float64(res.Layers)
	}
	return res, nil
}
