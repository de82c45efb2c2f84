package exp

import (
	"context"
	"fmt"
	"math"

	"spotlight/internal/core"
	"spotlight/internal/eval"
	"spotlight/internal/stats"
	"spotlight/internal/workload"
)

// TopDesignEntry is one of the search's best designs re-evaluated on the
// second analytical model.
type TopDesignEntry struct {
	Rank      int     // 1-based rank under the primary model
	Primary   float64 // objective under the primary model
	Secondary float64 // objective under the second model (-1 if infeasible there)
	Accel     string
}

// TopDesignResult is the §VII-F workflow the paper recommends before
// committing a design to another medium: carry the top ~20 designs
// forward and re-evaluate all of them rather than trusting the single
// optimum.
type TopDesignResult struct {
	Model     string
	Entries   []TopDesignEntry
	Evaluable int     // designs the second model could cost at all
	Spearman  float64 // rank agreement between the two models on the top set
	BestRank  int     // rank (under the primary) of the second model's favorite; 0 if none evaluable
}

// TopDesignCrossCheck co-designs an accelerator for the model with the
// primary cost model, then ports every retained top design to the
// independent second model: the hardware is fixed, and the software
// schedules are re-optimized under the second model's assumptions —
// what one would do when moving a design to a new evaluation medium
// (the second model's double-buffering rejects most schedules tuned for
// the primary model, so re-tuning, not re-costing, is the meaningful
// comparison).
func TopDesignCrossCheck(ctx context.Context, cfg Config, modelName string) (TopDesignResult, error) {
	cfg = cfg.normalized()
	m, err := workload.ByName(modelName)
	if err != nil {
		return TopDesignResult{}, err
	}
	rc, err := cfg.runConfig([]workload.Model{m}, 0)
	if err != nil {
		return TopDesignResult{}, err
	}
	res, err := core.RunContext(ctx, rc, core.NewSpotlight())
	if err != nil {
		return TopDesignResult{}, fmt.Errorf("exp: top-design co-design: %w", err)
	}

	// Port each top design: same hardware, schedules re-optimized under
	// the second model — with a memo cache, because the ports re-cost
	// heavily overlapping schedule sets across the top designs.
	portCfg := rc
	portPipe, err := eval.FromSpec("timeloop,cache", eval.SpecOptions{})
	if err != nil {
		return TopDesignResult{}, err
	}
	portCfg.Eval = portPipe
	out := TopDesignResult{Model: m.Name}
	var primaryVals, secondaryVals []float64
	bestSecondary := math.Inf(1)
	for rank, d := range res.Top {
		entry := TopDesignEntry{
			Rank:      rank + 1,
			Primary:   d.Objective,
			Secondary: -1,
			Accel:     d.Accel.String(),
		}
		ported, err := core.OptimizeSoftware(ctx, portCfg, core.NewSpotlight(), d.Accel)
		if cerr := ctx.Err(); cerr != nil {
			return TopDesignResult{}, cerr // not "infeasible on the second model"
		}
		if err == nil {
			entry.Secondary = ported.Objective
			out.Evaluable++
			primaryVals = append(primaryVals, d.Objective)
			secondaryVals = append(secondaryVals, ported.Objective)
			if ported.Objective < bestSecondary {
				bestSecondary = ported.Objective
				out.BestRank = rank + 1
			}
		}
		out.Entries = append(out.Entries, entry)
	}
	if len(primaryVals) >= 2 {
		out.Spearman = stats.Spearman(primaryVals, secondaryVals)
	}
	return out, nil
}
