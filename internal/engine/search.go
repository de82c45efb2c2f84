package engine

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"spotlight/internal/core"
	"spotlight/internal/exp"
	"spotlight/internal/obs"
)

// SearchOptions carries the per-run wiring RunSearch cannot derive from
// the spec: the evaluator (built once and possibly shared across jobs),
// the tracer, and the checkpoint/resume hooks.
type SearchOptions struct {
	// Eval evaluates candidate schedules; required.
	Eval core.Evaluator
	// Tracer receives the run's trace events; nil disables tracing.
	Tracer obs.Tracer
	// Resume restarts the run from a prior checkpoint; the spec's models,
	// seed, strategy, and budgets must match the original run.
	Resume *core.Checkpoint
	// OnCheckpoint, if set, is called after every hardware sample with
	// the current checkpoint (the CLI writes a file; the server retains
	// it in memory for POST /jobs/{id}/resume).
	OnCheckpoint func(*core.Checkpoint) error
}

// RunSearch executes one co-design search described by spec. It is
// cmd/spotlight's orchestration relocated: the spec becomes a
// core.RunConfig via SearchConfig, the checkpoint hooks are attached,
// and core.RunContext does the work. Cancellation semantics are
// core.RunContext's: on ctx cancellation the partial result is returned
// alongside the context error, and res.History tells the caller how far
// the run got.
func RunSearch(ctx context.Context, spec JobSpec, opts SearchOptions) (core.Result, error) {
	cfg, strat, err := spec.SearchConfig(opts.Eval, opts.Tracer)
	if err != nil {
		return core.Result{}, err
	}
	cfg.Resume = opts.Resume
	cfg.OnCheckpoint = opts.OnCheckpoint
	// The job span roots the run's span tree: job → run → trial → ....
	// Observe-only, so it opens after the config is validated enough to
	// try and closes on every exit path.
	jobSpan := obs.StartSpan(opts.Tracer, "job")
	cfg.Span = jobSpan
	res, err := core.RunContext(ctx, cfg, strat)
	jobSpan.End()
	return res, err
}

// SearchReport renders the human-readable result summary — tool,
// objective, accelerator, area/power, per-model breakdown, and (verbose)
// per-layer schedules. Byte-identical to what cmd/spotlight printed
// before the move; the CLI and spotlightd's job status both use it.
func SearchReport(res core.Result, obj core.Objective, verbose bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tool:      %s\n", res.Tool)
	fmt.Fprintf(&b, "objective: %s = %.6g\n", obj, res.Best.Objective)
	fmt.Fprintf(&b, "accel:     %s\n", res.Best.Accel)
	fmt.Fprintf(&b, "area:      %.2f mm²   peak power: %.1f mW\n",
		res.Best.Accel.AreaMM2(), res.Best.Accel.PeakPowerMW())
	for _, line := range ModelObjectiveLines(obj, res.Best) {
		b.WriteString(line)
	}
	if !verbose {
		return b.String()
	}
	b.WriteString("schedules:\n")
	for _, lr := range res.Best.Layers {
		fmt.Fprintf(&b, "  %-10s %-16s delay=%.4g cycles  energy=%.4g nJ  util=%.2f\n",
			lr.Model, lr.Layer.Name, lr.Cost.DelayCycles, lr.Cost.EnergyNJ, lr.Cost.Utilization)
		fmt.Fprintf(&b, "             %s\n", lr.Schedule)
	}
	return b.String()
}

// ModelObjectiveLines renders the per-model objective breakdown in
// model-name order. core.ModelObjectives returns a map, and ranging over
// it directly (as the CLI's report once did) printed multi-model runs in
// a different order every invocation — breaking the
// byte-identical-stdout determinism contract the verify flows diff
// against.
func ModelObjectiveLines(obj core.Objective, d core.Design) []string {
	objs := core.ModelObjectives(obj, d)
	models := make([]string, 0, len(objs))
	for m := range objs { //lint:allow maporder(sorted before rendering, three lines down)
		models = append(models, m)
	}
	slices.Sort(models)
	lines := make([]string, 0, len(models))
	for _, m := range models {
		lines = append(lines, fmt.Sprintf("  %-14s %s = %.6g\n", m, obj, objs[m]))
	}
	return lines
}

// HistoryCSV renders the per-sample convergence history as CSV, the
// format cmd/spotlight's -history flag writes. The elapsed_s column is
// wall-clock and therefore the one artifact column exempt from the
// byte-identical contract.
func HistoryCSV(res core.Result) []byte {
	rows := make([][]string, 0, len(res.History))
	for _, h := range res.History {
		rows = append(rows, []string{
			strconv.Itoa(h.Sample),
			strconv.FormatFloat(h.Elapsed.Seconds(), 'g', 6, 64),
			strconv.FormatFloat(h.Value, 'g', 6, 64),
			strconv.FormatFloat(h.BestSoFar, 'g', 6, 64),
		})
	}
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = exp.WriteTable(&buf, []string{"sample", "elapsed_s", "value", "best_so_far"}, rows)
	return buf.Bytes()
}

// DesignJSON exports the winning design in the interchange format
// cmd/spotlight's -json flag writes and -reevaluate reads back.
func DesignJSON(res core.Result, obj core.Objective) ([]byte, error) {
	var buf bytes.Buffer
	if err := core.WriteJSON(&buf, core.Export(res.Tool, obj, res.Best)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
