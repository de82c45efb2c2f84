package engine

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"

	"spotlight/internal/core"
	"spotlight/internal/exp"
	"spotlight/internal/obs"
)

// Artifact is one file an experiment step produces, held as bytes so the
// same rendering serves both the CLI (which writes it under -out) and
// spotlightd (which serves it at /jobs/{id}/artifacts/{name}). The CSV
// bytes are produced by the exact exp.WriteRows/WriteTable calls the
// pre-refactor CLI made, which is what keeps a served fig6.csv
// byte-identical to a CLI-written one.
type Artifact struct {
	Name string
	Data []byte
}

// StepResult is one completed experiment step: its key, the summary text
// the CLI prints under the "== key ==" banner (byte-identical to the
// pre-refactor stdout), and the artifacts it produced.
type StepResult struct {
	Key       string
	Summary   string
	Artifacts []Artifact
}

// ExperimentOptions carries the per-run wiring for RunExperiments.
type ExperimentOptions struct {
	// Eval evaluates candidate schedules; required. Building it here —
	// rather than letting exp normalize the spec per step — is what lets
	// the memo cache deduplicate evaluations between figures.
	Eval core.Evaluator
	// Tracer receives trace events; nil disables tracing.
	Tracer obs.Tracer
	// OnStepStart, if set, is called before each step runs (the CLI
	// prints its "== key ==" banner here).
	OnStepStart func(key string)
	// OnStepDone, if set, is called after each step with its result (the
	// CLI prints the summary and writes the artifacts; the server stores
	// them). A returned error aborts the run.
	OnStepDone func(StepResult) error
}

// stepState is the cross-step cache: Figure 11 is derived from Figure
// 10's curves, so one run computes them once, as in the paper.
type stepState struct {
	fig10 map[string][]exp.Curve
}

// stepFn computes one experiment step.
type stepFn func(ctx context.Context, cfg exp.Config, st *stepState) (StepResult, error)

// experimentSteps is the canonical step order — the order the
// pre-refactor CLI hard-coded. Requested steps always execute in this
// order, whatever order they were asked for in, so fig11 finds fig10's
// cached curves and stdout stays deterministic.
var experimentSteps = []struct {
	key string
	fn  stepFn
}{
	{"fig6", stepFig6},
	{"fig7", stepFig7},
	{"fig8", stepFig8},
	{"fig9", stepFig9},
	{"fig10", stepFig10},
	{"fig11", stepFig11},
	{"surrogate", stepSurrogate},
	{"discussion", stepDiscussion},
	{"timeloop", stepTimeloop},
	{"topdesigns", stepTopDesigns},
	{"simcheck", stepSimCheck},
	{"kernels", stepKernels},
}

// StepKeys returns every experiment step key in canonical run order.
func StepKeys() []string {
	keys := make([]string, len(experimentSteps))
	for i, s := range experimentSteps {
		keys[i] = s.key
	}
	return keys
}

// RunExperiments executes the spec's experiment steps in canonical
// order, handing ctx to each step's driver, which stops at its next
// sample once ctx is done. A step that ctx interrupted is dropped, its
// result never reaching OnStepDone: RunExperiments returns the steps
// completed before it alongside an error that names the step and the
// cancel cause and wraps ctx.Err().
func RunExperiments(ctx context.Context, spec JobSpec, opts ExperimentOptions) ([]StepResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg, err := spec.ExpConfig(opts.Eval, opts.Tracer)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, k := range spec.Steps {
		want[k] = true
	}
	// The job span roots the span tree; each executed step nests an
	// exp.step span labeled with its key, and the runs a step drives
	// nest under that via cfg.Span.
	jobSpan := obs.StartSpan(opts.Tracer, "job")
	defer jobSpan.End()
	st := &stepState{}
	var results []StepResult
	for _, s := range experimentSteps {
		if !want[s.key] {
			continue
		}
		if ctx.Err() != nil {
			return results, interrupted(ctx, "before "+s.key)
		}
		if opts.OnStepStart != nil {
			opts.OnStepStart(s.key)
		}
		stepSpan := jobSpan.ChildLabel("exp.step", s.key)
		stepCfg := cfg
		stepCfg.Span = stepSpan
		res, err := s.fn(ctx, stepCfg, st)
		stepSpan.End()
		if ctx.Err() != nil {
			return results, interrupted(ctx, "in "+s.key)
		}
		if err != nil {
			return results, fmt.Errorf("%s: %w", s.key, err)
		}
		results = append(results, res)
		if opts.OnStepDone != nil {
			if err := opts.OnStepDone(res); err != nil {
				return results, err
			}
		}
	}
	return results, nil
}

// interrupted is the error of a run that ctx stopped at where (a step):
// it names the step and, when ctx records one, the cancel cause (the
// signal a shutdown context caught), and wraps both ctx.Err() and the
// cause, so errors.Is(err, context.Canceled) holds and ExitCode(err)
// sees the signal.
func interrupted(ctx context.Context, where string) error {
	err := ctx.Err()
	if cause := context.Cause(ctx); cause != err {
		return fmt.Errorf("interrupted %s by %w: %w", where, cause, err)
	}
	return fmt.Errorf("interrupted %s: %w", where, err)
}

// csvArtifact renders one CSV artifact through the same write function
// the CLI used with an *os.File; a bytes.Buffer cannot fail to write.
func csvArtifact(name string, write func(w *bytes.Buffer) error) Artifact {
	var buf bytes.Buffer
	_ = write(&buf)
	return Artifact{Name: name, Data: buf.Bytes()}
}

func stepFig6(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	rows, err := exp.Fig6(ctx, cfg)
	if err != nil {
		return StepResult{}, err
	}
	return StepResult{
		Key:     "fig6",
		Summary: formatRows(rows),
		Artifacts: []Artifact{
			csvArtifact("fig6.csv", func(w *bytes.Buffer) error { return exp.WriteRows(w, rows) }),
		},
	}, nil
}

func stepFig7(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	res, err := exp.Fig7(ctx, cfg)
	if err != nil {
		return StepResult{}, err
	}
	return StepResult{
		Key:     "fig7",
		Summary: " EDP:\n" + formatRows(res.EDP) + " delay:\n" + formatRows(res.Delay),
		Artifacts: []Artifact{
			csvArtifact("fig7_edp.csv", func(w *bytes.Buffer) error { return exp.WriteRows(w, res.EDP) }),
			csvArtifact("fig7_delay.csv", func(w *bytes.Buffer) error { return exp.WriteRows(w, res.Delay) }),
		},
	}, nil
}

func stepFig8(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	res, err := exp.Fig8(ctx, cfg)
	if err != nil {
		return StepResult{}, err
	}
	return StepResult{
		Key:     "fig8",
		Summary: " EDP:\n" + formatRows(res.EDP) + " delay:\n" + formatRows(res.Delay),
		Artifacts: []Artifact{
			csvArtifact("fig8_edp.csv", func(w *bytes.Buffer) error { return exp.WriteRows(w, res.EDP) }),
			csvArtifact("fig8_delay.csv", func(w *bytes.Buffer) error { return exp.WriteRows(w, res.Delay) }),
		},
	}, nil
}

func stepFig9(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	res, err := exp.Fig9(ctx, cfg)
	if err != nil {
		return StepResult{}, err
	}
	var b strings.Builder
	for _, model := range exp.SortedKeys(res.Importance) {
		fmt.Fprintf(&b, "   %-12s top feature: %s\n", model, topFeature(res.Features, res.Importance[model]))
	}
	header, rows := exp.Fig9Rows(res)
	return StepResult{
		Key:     "fig9",
		Summary: b.String(),
		Artifacts: []Artifact{
			csvArtifact("fig9.csv", func(w *bytes.Buffer) error { return exp.WriteTable(w, header, rows) }),
		},
	}, nil
}

// stepFig10 runs Figure 10 and caches the curves so Figure 11 can reuse
// the same runs, as in the paper.
func stepFig10(ctx context.Context, cfg exp.Config, st *stepState) (StepResult, error) {
	curves, err := exp.Fig10(ctx, cfg)
	if err != nil {
		return StepResult{}, err
	}
	st.fig10 = curves
	var b strings.Builder
	for _, model := range exp.SortedKeys(curves) {
		for _, stat := range exp.EfficiencyStats(curves[model]) {
			fmt.Fprintf(&b, "   %-12s %-13s %4d samples, %.0f%% feasible, %.1f%% beat random's best\n",
				model, stat.Tool, stat.Samples, 100*stat.FeasibleFraction, 100*stat.BeatsRandomBest)
		}
		for _, c := range curves[model] {
			sum := c.FinalSummary()
			fmt.Fprintf(&b, "   %-12s %-13s final best: min=%.4g median=%.4g max=%.4g\n",
				model, c.Tool, sum.Min, sum.Median, sum.Max)
		}
	}
	header, rows := exp.Fig10Rows(curves)
	return StepResult{
		Key:     "fig10",
		Summary: b.String(),
		Artifacts: []Artifact{
			csvArtifact("fig10.csv", func(w *bytes.Buffer) error { return exp.WriteTable(w, header, rows) }),
		},
	}, nil
}

// stepFig11 emits Figure 11 from cached Figure 10 curves, running
// Figure 10 first if it was not requested.
func stepFig11(ctx context.Context, cfg exp.Config, st *stepState) (StepResult, error) {
	if st.fig10 == nil {
		curves, err := exp.Fig10(ctx, cfg)
		if err != nil {
			return StepResult{}, err
		}
		st.fig10 = curves
	}
	cdfs := exp.Fig11(st.fig10)
	header, rows := exp.Fig11Rows(cdfs)
	return StepResult{
		Key: "fig11",
		Artifacts: []Artifact{
			csvArtifact("fig11.csv", func(w *bytes.Buffer) error { return exp.WriteTable(w, header, rows) }),
		},
	}, nil
}

func stepSurrogate(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	res, err := exp.SurrogateAccuracy(ctx, cfg, 2000)
	if err != nil {
		return StepResult{}, err
	}
	header := []string{"kernel", "spearman_edp", "spearman_delay", "top_quintile", "train", "test"}
	var b strings.Builder
	var rows [][]string
	for _, s := range res {
		fmt.Fprintf(&b, "   %-9s ρ(EDP)=%.4f ρ(delay)=%.4f top-20%%=%.1f%%\n",
			s.Kernel, s.SpearmanEDP, s.SpearmanDel, 100*s.TopQuintile)
		rows = append(rows, []string{
			s.Kernel,
			strconv.FormatFloat(s.SpearmanEDP, 'g', 4, 64),
			strconv.FormatFloat(s.SpearmanDel, 'g', 4, 64),
			strconv.FormatFloat(s.TopQuintile, 'g', 4, 64),
			strconv.Itoa(s.TrainSize), strconv.Itoa(s.TestSize),
		})
	}
	return StepResult{
		Key:     "surrogate",
		Summary: b.String(),
		Artifacts: []Artifact{
			csvArtifact("surrogate.csv", func(w *bytes.Buffer) error { return exp.WriteTable(w, header, rows) }),
		},
	}, nil
}

func stepDiscussion(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	model := "ResNet-50"
	if len(cfg.Models) > 0 {
		model = cfg.Models[0]
	}
	rows, err := exp.Discussion(ctx, cfg, model)
	if err != nil {
		return StepResult{}, err
	}
	header := []string{"config", "throughput_per_nJ", "rel_to_spotlight", "rf_input_reuse", "l2_input_reuse", "array"}
	var b strings.Builder
	var out [][]string
	for _, d := range rows {
		fmt.Fprintf(&b, "   %-14s tput/J=%.4g (Spotlight is %.2gx)  reuse RF=%.3g L2=%.3g  array=%dx%d\n",
			d.Config, d.ThroughputPerJ, d.RelThroughputPerJ, d.RFInputReuse, d.L2InputReuse,
			d.ArrayHeight, d.ArrayWidth)
		out = append(out, []string{
			d.Config,
			strconv.FormatFloat(d.ThroughputPerJ, 'g', 6, 64),
			strconv.FormatFloat(d.RelThroughputPerJ, 'g', 4, 64),
			strconv.FormatFloat(d.RFInputReuse, 'g', 4, 64),
			strconv.FormatFloat(d.L2InputReuse, 'g', 4, 64),
			fmt.Sprintf("%dx%d", d.ArrayHeight, d.ArrayWidth),
		})
	}
	return StepResult{
		Key:     "discussion",
		Summary: b.String(),
		Artifacts: []Artifact{
			csvArtifact("discussion.csv", func(w *bytes.Buffer) error { return exp.WriteTable(w, header, out) }),
		},
	}, nil
}

func stepTimeloop(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	names := cfg.Models
	if len(names) == 0 {
		names = []string{"VGG16", "ResNet-50", "MobileNetV2", "MnasNet", "Transformer"}
	}
	header := []string{"model", "layers", "top20_overlap", "bottom20_overlap", "spearman"}
	var b strings.Builder
	var rows [][]string
	for _, name := range names {
		res, err := exp.CrossModelAgreement(ctx, cfg, name, 100)
		if err != nil {
			return StepResult{}, err
		}
		fmt.Fprintf(&b, "   %-12s layers=%d top-20%%=%.1f%% bottom-20%%=%.1f%% ρ=%.3f\n",
			res.Model, res.Layers, 100*res.MeanTopOverlap, 100*res.MeanBotOverlap, res.MeanSpearman)
		rows = append(rows, []string{
			res.Model, strconv.Itoa(res.Layers),
			strconv.FormatFloat(res.MeanTopOverlap, 'g', 4, 64),
			strconv.FormatFloat(res.MeanBotOverlap, 'g', 4, 64),
			strconv.FormatFloat(res.MeanSpearman, 'g', 4, 64),
		})
	}
	return StepResult{
		Key:     "timeloop",
		Summary: b.String(),
		Artifacts: []Artifact{
			csvArtifact("timeloop.csv", func(w *bytes.Buffer) error { return exp.WriteTable(w, header, rows) }),
		},
	}, nil
}

func stepTopDesigns(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	model := "ResNet-50"
	if len(cfg.Models) > 0 {
		model = cfg.Models[0]
	}
	res, err := exp.TopDesignCrossCheck(ctx, cfg, model)
	if err != nil {
		return StepResult{}, err
	}
	summary := fmt.Sprintf("   %s: %d top designs, rank agreement ρ=%.3f, second model's favorite is primary rank #%d\n",
		res.Model, len(res.Entries), res.Spearman, res.BestRank)
	header := []string{"rank", "primary", "secondary", "accel"}
	var rows [][]string
	for _, e := range res.Entries {
		rows = append(rows, []string{
			strconv.Itoa(e.Rank),
			strconv.FormatFloat(e.Primary, 'g', 6, 64),
			strconv.FormatFloat(e.Secondary, 'g', 6, 64),
			e.Accel,
		})
	}
	return StepResult{
		Key:     "topdesigns",
		Summary: summary,
		Artifacts: []Artifact{
			csvArtifact("topdesigns.csv", func(w *bytes.Buffer) error { return exp.WriteTable(w, header, rows) }),
		},
	}, nil
}

func stepSimCheck(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	res, err := exp.SimCheck(ctx, cfg, 60)
	if err != nil {
		return StepResult{}, err
	}
	summary := fmt.Sprintf("   %d/%d schedules match the analytical model exactly; LRU caching saves %.1f%% median DRAM traffic\n",
		res.ExactMatches, res.Schedules, 100*res.CacheSavings.Median)
	header := []string{"schedules", "exact_matches", "saving_min", "saving_median", "saving_max"}
	rows := [][]string{{
		strconv.Itoa(res.Schedules), strconv.Itoa(res.ExactMatches),
		strconv.FormatFloat(res.CacheSavings.Min, 'g', 4, 64),
		strconv.FormatFloat(res.CacheSavings.Median, 'g', 4, 64),
		strconv.FormatFloat(res.CacheSavings.Max, 'g', 4, 64),
	}}
	return StepResult{
		Key:     "simcheck",
		Summary: summary,
		Artifacts: []Artifact{
			csvArtifact("simcheck.csv", func(w *bytes.Buffer) error { return exp.WriteTable(w, header, rows) }),
		},
	}, nil
}

func stepKernels(ctx context.Context, cfg exp.Config, _ *stepState) (StepResult, error) {
	model := "ResNet-50"
	if len(cfg.Models) > 0 {
		model = cfg.Models[0]
	}
	res, err := exp.KernelSearchComparison(ctx, cfg, model)
	if err != nil {
		return StepResult{}, err
	}
	header := []string{"kernel", "min", "median", "max"}
	var b strings.Builder
	var rows [][]string
	for _, k := range res {
		fmt.Fprintf(&b, "   %-9s best %s: median=%.4g [%.4g, %.4g]\n",
			k.Kernel, cfg.Objective, k.Summary.Median, k.Summary.Min, k.Summary.Max)
		rows = append(rows, []string{
			k.Kernel,
			strconv.FormatFloat(k.Summary.Min, 'g', 6, 64),
			strconv.FormatFloat(k.Summary.Median, 'g', 6, 64),
			strconv.FormatFloat(k.Summary.Max, 'g', 6, 64),
		})
	}
	return StepResult{
		Key:     "kernels",
		Summary: b.String(),
		Artifacts: []Artifact{
			csvArtifact("kernels.csv", func(w *bytes.Buffer) error { return exp.WriteTable(w, header, rows) }),
		},
	}, nil
}

// formatRows renders the per-row comparison lines shared by the fig6/7/8
// summaries, byte-identical to the CLI's former printRows.
func formatRows(rows []exp.Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "   %-12s %-18s median=%.4g [%.4g, %.4g]  %.3gx Spotlight\n",
			r.Model, r.Config, r.Median, r.Min, r.Max, r.Normalized)
	}
	return b.String()
}

// topFeature names the highest-importance feature for a fig9 model row.
func topFeature(names []string, imp []float64) string {
	best := 0
	for i, v := range imp {
		if v > imp[best] {
			best = i
		}
	}
	if best < len(names) {
		return names[best]
	}
	return "?"
}
