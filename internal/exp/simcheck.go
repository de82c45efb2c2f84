package exp

import (
	"context"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/sim"
	"spotlight/internal/stats"
	"spotlight/internal/workload"
)

// SimCheckResult validates the analytical model against the trace-driven
// simulator and quantifies the headroom of multi-tile scratchpad caching
// (the "more accurate backend" direction of §VIII).
type SimCheckResult struct {
	Schedules int // schedules both tools accepted
	// ExactMatches counts schedules where the simulator's DRAM traffic
	// under the analytical residency assumption equals the model's
	// prediction byte-for-byte. Any mismatch is a model bug.
	ExactMatches int
	// CacheSavings summarizes (1 − fullCacheBytes/singleSetBytes) across
	// schedules: how much traffic LRU tile caching removes beyond the
	// analytical single-working-set assumption.
	CacheSavings stats.Summary
}

// SimCheck runs the validation on random schedules of a small layer.
func SimCheck(ctx context.Context, cfg Config, samples int) (SimCheckResult, error) {
	cfg = cfg.normalized()
	if samples <= 0 {
		samples = 60
	}
	scale, err := hw.ScaleByName(cfg.Scale)
	if err != nil {
		return SimCheckResult{}, err
	}
	layer := workload.Conv("simcheck", 1, 64, 32, 3, 3, 34, 34) // ~120 KB working set: larger than most L2 samples
	model := maestro.New()
	free := sched.Free()
	rng := cfg.rngFor(19)

	var res SimCheckResult
	var savings []float64
	attempts := 0
	for res.Schedules < samples && attempts < samples*50 {
		if err := ctx.Err(); err != nil {
			return SimCheckResult{}, err
		}
		attempts++
		a := scale.Space.Random(rng)
		s := free.Random(rng, layer, a.RFBytesPerPE(), a.L2Bytes())
		cost, err := model.Evaluate(a, s, layer)
		if err != nil {
			continue
		}
		single, err := sim.Simulate(a, s, layer, sim.Options{SingleWorkingSet: true})
		if err != nil {
			continue
		}
		full, err := sim.Simulate(a, s, layer, sim.Options{})
		if err != nil {
			continue
		}
		res.Schedules++
		if single.DRAMBytes() == cost.DRAMBytes { //lint:allow floateq(counts bit-exact analytical-vs-simulated agreement; exactness is the statistic being measured)
			res.ExactMatches++
		}
		if sb := single.DRAMBytes(); sb > 0 {
			savings = append(savings, 1-full.DRAMBytes()/sb)
		}
	}
	if len(savings) > 0 {
		res.CacheSavings = stats.Summarize(savings)
	}
	return res, nil
}
