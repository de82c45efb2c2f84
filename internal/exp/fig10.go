package exp

import (
	"context"
	"fmt"
	"math"

	"spotlight/internal/core"
	"spotlight/internal/search"
	"spotlight/internal/stats"
	"spotlight/internal/workload"
)

// Curve is the convergence behavior of one algorithm on one model:
// per-trial histories of best-so-far objective versus sample index and
// wall-clock time (Figure 10 plots the median with a min/max envelope).
type Curve struct {
	Tool   string
	Trials [][]core.HistoryPoint
	// Errors holds each trial's failure, nil where the trial completed.
	// A failed trial keeps whatever history it produced in its Trials
	// slot; summaries simply draw on fewer complete trials. A canceled
	// Fig10 returns no curves at all.
	Errors []error
}

// Failed counts the trials that did not complete.
func (c Curve) Failed() int {
	n := 0
	for _, err := range c.Errors {
		if err != nil {
			n++
		}
	}
	return n
}

// FinalSummary returns the min/median/max of each trial's final
// best-so-far value — the endpoints the paper's compare-ae.sh emits.
func (c Curve) FinalSummary() stats.Summary {
	finals := make([]float64, 0, len(c.Trials))
	for _, tr := range c.Trials {
		if len(tr) > 0 {
			finals = append(finals, tr[len(tr)-1].BestSoFar)
		}
	}
	return stats.Summarize(finals)
}

// AblationStrategies returns the seven search algorithms of Figure 10 in
// presentation order.
func AblationStrategies() []core.Strategy {
	return []core.Strategy{
		core.NewSpotlight(),
		search.NewRandom(),
		core.NewSpotlightF(),
		core.NewSpotlightV(),
		search.NewGenetic(),
		search.NewConfuciuX(),
		search.NewHASCO(),
	}
}

// Fig10 reproduces the ablation study of Figure 10: for each configured
// model, run every algorithm for cfg.Trials independent trials and record
// its convergence history. The returned map is keyed by model name.
func Fig10(ctx context.Context, cfg Config) (map[string][]Curve, error) {
	cfg = cfg.normalized()
	models, err := cfg.models()
	if err != nil {
		return nil, err
	}
	out := map[string][]Curve{}
	for _, m := range models {
		var curves []Curve
		for _, strat := range AblationStrategies() {
			if !toolSupports(strat.Name(), m.Name) {
				continue
			}
			c := Curve{Tool: strat.Name()}
			c.Trials = make([][]core.HistoryPoint, cfg.Trials)
			c.Errors, err = cfg.forTrials(ctx, func(t int) error {
				rc, err := cfg.runConfig([]workload.Model{m}, t)
				if err != nil {
					return err
				}
				res, err := core.RunContext(ctx, rc, strat)
				// Keep the partial history even when the run failed or
				// was cut short; the error is recorded alongside it.
				c.Trials[t] = res.History
				if err != nil {
					return fmt.Errorf("exp: fig10 %s on %s trial %d: %w",
						strat.Name(), m.Name, t, err)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			curves = append(curves, c)
		}
		out[m.Name] = curves
	}
	return out, nil
}

// CDFSeries is one algorithm's Figure 11 data: the finite hardware-sample
// objectives of each trial, from which the empirical CDF is plotted.
type CDFSeries struct {
	Tool   string
	Trials []*stats.CDF
}

// Fig11 derives the hardware-sample CDFs of Figure 11 from Figure 10's
// runs: every evaluated hardware sample's aggregate objective, one CDF
// per trial. Infeasible samples (+Inf) are excluded, as they have no
// finite objective to place on the x axis.
func Fig11(curves map[string][]Curve) map[string][]CDFSeries {
	out := map[string][]CDFSeries{}
	for model, cs := range curves {
		var series []CDFSeries
		for _, c := range cs {
			s := CDFSeries{Tool: c.Tool}
			for _, trial := range c.Trials {
				var vals []float64
				for _, h := range trial {
					if !math.IsInf(h.Value, 0) {
						vals = append(vals, h.Value)
					}
				}
				s.Trials = append(s.Trials, stats.NewCDF(vals))
			}
			series = append(series, s)
		}
		out[model] = series
	}
	return out
}

// FractionBetterThanRandomBest computes the §VII-E statistic: the
// fraction of one algorithm's hardware samples that beat the *best*
// sample random search ever found (the paper reports 81.7% for
// Spotlight). Both arguments aggregate all trials.
func FractionBetterThanRandomBest(algorithm, random Curve) float64 {
	randomBest := math.Inf(1)
	for _, trial := range random.Trials {
		for _, h := range trial {
			if h.Value < randomBest {
				randomBest = h.Value
			}
		}
	}
	var samples []float64
	for _, trial := range algorithm.Trials {
		for _, h := range trial {
			if !math.IsInf(h.Value, 0) {
				samples = append(samples, h.Value)
			}
		}
	}
	return stats.FractionBelow(samples, randomBest)
}

// EfficiencyStat summarizes one algorithm's sample economy for the
// §VII-E discussion: how many hardware samples it evaluated, what
// fraction were feasible, and what fraction beat the best design random
// search ever found (the paper reports 81.7% for Spotlight).
type EfficiencyStat struct {
	Tool             string
	Samples          int
	FeasibleFraction float64
	BeatsRandomBest  float64
}

// EfficiencyStats derives the §VII-E statistics from one model's Figure
// 10 curves. The random-search curve (Spotlight-R) is the reference; if
// it is absent, BeatsRandomBest is zero for every entry.
func EfficiencyStats(curves []Curve) []EfficiencyStat {
	var random Curve
	for _, c := range curves {
		if c.Tool == "Spotlight-R" {
			random = c
		}
	}
	out := make([]EfficiencyStat, 0, len(curves))
	for _, c := range curves {
		stat := EfficiencyStat{Tool: c.Tool}
		feasible := 0
		for _, trial := range c.Trials {
			for _, h := range trial {
				stat.Samples++
				if !math.IsInf(h.Value, 0) {
					feasible++
				}
			}
		}
		if stat.Samples > 0 {
			stat.FeasibleFraction = float64(feasible) / float64(stat.Samples)
		}
		if len(random.Trials) > 0 {
			stat.BeatsRandomBest = FractionBetterThanRandomBest(c, random)
		}
		out = append(out, stat)
	}
	return out
}
