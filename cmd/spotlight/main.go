// Command spotlight is the co-design tool: given one or more DL models
// and a hardware budget, it searches the joint hardware/software space
// and emits the optimized accelerator configuration and per-layer
// software schedules, plus an optional CSV convergence history.
//
// It is a thin adapter over internal/engine — flag parsing, file I/O,
// and exit codes live here; the orchestration (spec→config translation,
// checkpoint/resume, signal semantics, result rendering) is the same
// engine code spotlightd serves over HTTP.
//
// Examples:
//
//	spotlight -models ResNet-50 -objective delay
//	spotlight -models VGG16,ResNet-50 -scale cloud -objective edp -hw 100 -sw 100
//	spotlight -models Transformer -strategy spotlight-f -history hist.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"spotlight/internal/core"
	"spotlight/internal/engine"
	"spotlight/internal/eval"
	"spotlight/internal/hw"
	"spotlight/internal/workload"
)

func main() {
	// SIGINT and SIGTERM cancel ctx: the search stops cooperatively and
	// run reports the partial result, its deferred handlers flushing the
	// cache journal and the trace sink. The process then exits 130 or
	// 143, so a batch scheduler can tell an interrupted search from a
	// finished one; a -timeout stop is a finished run and exits 0.
	ctx, stop := engine.ShutdownContext(context.Background())
	err := run(ctx)
	signaled := ctx.Err() != nil // only a signal cancels ctx before stop
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotlight:", err)
	}
	if err != nil || signaled {
		os.Exit(engine.ExitCode(context.Cause(ctx)))
	}
}

func run(ctx context.Context) error {
	var (
		modelsFlag = flag.String("models", "ResNet-50", "comma-separated DL models to co-design for")
		scale      = flag.String("scale", "edge", "hardware scale: edge or cloud")
		objective  = flag.String("objective", "delay", "objective to minimize: delay or edp")
		hwSamples  = flag.Int("hw", 100, "hardware samples")
		swSamples  = flag.Int("sw", 100, "software samples per layer per hardware sample")
		seed       = flag.Int64("seed", 1, "random seed")
		strategy   = flag.String("strategy", "spotlight", "search strategy: spotlight, spotlight-v, spotlight-a, spotlight-f, random, ga, confuciux, hasco")
		evalSpec   = flag.String("eval", "maestro", "evaluation pipeline spec: backend[,middleware...], e.g. \"maestro\", \"sim,cache,guard\" (backends: "+strings.Join(eval.Backends(), ", ")+"; middlewares: cache, diskcache(path=FILE), guard, stats)")
		evalStats  = flag.Bool("eval-stats", false, "print per-backend evaluation and cache statistics after the run")
		historyCSV = flag.String("history", "", "write the per-sample convergence history to this CSV file")
		jsonOut    = flag.String("json", "", "write the winning design (accelerator + schedules) to this JSON file")
		verbose    = flag.Bool("v", false, "print per-layer schedules")
		frontier   = flag.Bool("frontier", false, "print the pareto frontier and the budget-closest selection")
		reevaluate = flag.String("reevaluate", "", "skip the search: load a design JSON (from -json) and re-cost it on the -eval pipeline")

		workers     = flag.Int("workers", 0, "concurrent layer searches per hardware sample (0 = one per core); results are identical at any setting")
		timeout     = flag.Duration("timeout", 0, "overall search deadline (e.g. 30m); on expiry the partial result is reported (0 = none)")
		checkpoint  = flag.String("checkpoint", "", "write a resumable checkpoint to this file after every hardware sample (atomic replace)")
		resumeFrom  = flag.String("resume", "", "resume from a checkpoint file; models, seed, strategy, and budgets must match the original run")
		evalTimeout = flag.Duration("eval-timeout", 0, "abandon any single cost-model evaluation after this long (0 = none)")
		cacheDir    = flag.String("cache-dir", "", "persist evaluation results to a crash-safe journal in this directory and reuse them across runs (results are bit-identical warm or cold; disk faults degrade to in-memory evaluation)")

		traceFile   = flag.String("trace", "", "write structured JSONL trace events to this file (observe-only: results are bit-identical with or without; inspect with tracestat)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text 0.0.4) and /debug/pprof/* on this address while running, e.g. 127.0.0.1:6060 (\":0\" picks a port)")
	)
	flag.Parse()

	tele, closeTele, err := engine.StartCLITelemetry("spotlight", *traceFile, *metricsAddr, os.Stderr)
	if err != nil {
		return err
	}
	defer closeTele()

	// The whole evaluation stack — backend, memo cache, fault guard,
	// stats — is assembled by internal/eval from one spec string.
	// -eval-timeout configures the guard layer and forces one into the
	// chain if the spec named none.
	pipe, err := eval.FromSpec(*evalSpec, eval.SpecOptions{
		GuardTimeout: *evalTimeout,
		Tracer:       tele.Tracer,
		CacheDir:     *cacheDir,
	})
	if err != nil {
		// An unknown backend is a usage error: say what exists and how
		// to ask for it, instead of a bare failure.
		if unknown, ok := engine.IsUnknownBackend(err); ok {
			fmt.Fprintf(os.Stderr, "spotlight: %v\n\n", unknown)
			flag.Usage()
			os.Exit(2)
		}
		return err
	}
	// The persistent cache journal is flushed and closed on every exit
	// path; a failed flush is surfaced (records may not have hit disk)
	// but — per the degradation contract — never fails the run.
	defer func() {
		if cerr := pipe.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "spotlight: disk cache:", cerr)
		}
	}()
	reportStats := func() {
		if *evalStats {
			fmt.Print(pipe.Report())
		}
	}

	obj, err := engine.ResolveObjective(*objective)
	if err != nil {
		return err
	}

	if *reevaluate != "" {
		models, err := engine.ResolveModels(strings.Split(*modelsFlag, ","))
		if err != nil {
			return err
		}
		if err := reevaluateDesign(*reevaluate, pipe, obj, models); err != nil {
			return err
		}
		reportStats()
		return nil
	}

	jobSpec := engine.JobSpec{
		Kind:      engine.KindSearch,
		Models:    strings.Split(*modelsFlag, ","),
		Scale:     *scale,
		Objective: *objective,
		Strategy:  *strategy,
		HWSamples: *hwSamples,
		SWSamples: *swSamples,
		Seed:      *seed,
		Eval:      *evalSpec,
		Workers:   *workers,
	}
	opts := engine.SearchOptions{Eval: pipe, Tracer: tele.Tracer}
	if *resumeFrom != "" {
		cp, err := core.ReadCheckpointFile(*resumeFrom)
		if err != nil {
			return err
		}
		opts.Resume = cp
		fmt.Printf("resuming from %s (%d hardware samples done)\n", *resumeFrom, cp.Samples)
	}
	// checkpointed reports that a checkpoint reached the file. Each write
	// replaces the file atomically, and a signal cancels the run rather
	// than the process, so the last one written is whole.
	checkpointed := false
	if *checkpoint != "" {
		opts.OnCheckpoint = func(cp *core.Checkpoint) error {
			if err := core.WriteCheckpointFile(*checkpoint, cp); err != nil {
				return err
			}
			checkpointed = true
			return nil
		}
	}

	// A signal (ctx) or -timeout stops the search cooperatively: the
	// run finishes its current hardware sample's bookkeeping, the last
	// checkpoint on disk stays valid, the disk-cache journal is flushed
	// and closed by the deferred handlers above, and the partial result
	// is reported.
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := engine.RunSearch(ctx, jobSpec, opts)
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		fmt.Fprintln(os.Stderr, "spotlight:", err)
		if checkpointed {
			fmt.Fprintf(os.Stderr, "spotlight: checkpoint saved; continue with -resume %s\n", *checkpoint)
		}
		if len(res.History) == 0 {
			return errors.New("stopped before any hardware sample completed")
		}
		if math.IsInf(res.Best.Objective, 1) {
			return fmt.Errorf("no feasible design among the %d completed samples", len(res.History))
		}
		fmt.Printf("partial result after %d of %d hardware samples:\n", len(res.History), *hwSamples)
	}
	fmt.Print(engine.SearchReport(res, obj, *verbose))
	reportStats()
	if *frontier {
		sc, err := hw.ScaleByName(*scale)
		if err != nil {
			return err
		}
		reportFrontier(res, sc.Budget)
	}

	if *historyCSV != "" {
		if err := writeFile(*historyCSV, engine.HistoryCSV(res)); err != nil {
			return err
		}
		fmt.Printf("history written to %s\n", *historyCSV)
	}
	if *jsonOut != "" {
		data, err := engine.DesignJSON(res, obj)
		if err != nil {
			return err
		}
		if err := writeFile(*jsonOut, data); err != nil {
			return err
		}
		fmt.Printf("design written to %s\n", *jsonOut)
	}
	return nil
}

// writeFile writes an artifact, checking Close — on many filesystems it
// is where a write failure surfaces — so "written to" is never printed
// for a file that did not land.
func writeFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //lint:allow closecheck(the write already failed; that error is reported instead)
		return err
	}
	return f.Close()
}

// reevaluateDesign loads a previously exported design and re-costs its
// schedules on the selected backend, printing per-layer and aggregate
// results — the §VII-F workflow of carrying a design to another
// evaluation medium.
func reevaluateDesign(path string, ev core.Evaluator, obj core.Objective, models []workload.Model) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //lint:allow closecheck(read-only file: the close error carries no data)
	e, err := core.ReadJSON(f)
	if err != nil {
		return err
	}
	accel := hw.Accel{
		PEs: e.Accel.PEs, Width: e.Accel.Width, SIMDLanes: e.Accel.SIMDLanes,
		RFKB: e.Accel.RFKB, L2KB: e.Accel.L2KB, NoCBW: e.Accel.NoCBW,
	}
	layersByName := map[string]workload.Layer{}
	for _, m := range models {
		for _, l := range m.Layers {
			layersByName[m.Name+"/"+l.Name] = l
		}
	}
	fmt.Printf("re-evaluating %s design on backend %q\n", e.Tool, ev.Name())
	layers := make([]core.LayerResult, 0, len(e.Layers))
	infeasible := 0
	for _, le := range e.Layers {
		layer, ok := layersByName[le.Model+"/"+le.Layer]
		if !ok {
			return fmt.Errorf("layer %s/%s not found in -models; pass the same models the design was built for", le.Model, le.Layer)
		}
		s, err := core.ScheduleFromExport(le)
		if err != nil {
			return err
		}
		c, err := ev.Evaluate(accel, s, layer)
		if err != nil {
			infeasible++
			fmt.Printf("  %-16s infeasible on this backend (%v)\n", le.Layer, err)
			continue
		}
		layers = append(layers, core.LayerResult{Model: le.Model, Layer: layer, Cost: c})
		fmt.Printf("  %-16s delay=%.4g (was %.4g)  energy=%.4g nJ\n",
			le.Layer, c.DelayCycles, le.DelayCycles, c.EnergyNJ)
	}
	if infeasible > 0 {
		fmt.Printf("%d layers infeasible on this backend — re-tune with -strategy spotlight -eval %s\n",
			infeasible, ev.Name())
		return nil
	}
	fmt.Printf("aggregate %s = %.6g (was %.6g on %s)\n",
		obj, core.DesignObjective(obj, layers), e.Value, e.Tool)
	return nil
}

// reportFrontier prints the (objective, area, power) pareto set and the
// §VI-B selection: the frontier design closest to the budget without
// exceeding it.
func reportFrontier(res core.Result, budget hw.Budget) {
	fmt.Printf("pareto frontier (%d designs):\n", len(res.Frontier))
	var fr core.ParetoFrontier
	for _, d := range res.Frontier {
		fr.Add(d)
		fmt.Printf("  obj=%-12.5g area=%6.2f mm²  power=%7.1f mW  %s\n",
			d.Objective, d.Accel.AreaMM2(), d.Accel.PeakPowerMW(), d.Accel)
	}
	if pick, ok := fr.SelectWithinBudget(budget); ok {
		fmt.Printf("budget-closest selection: obj=%.5g %s\n", pick.Objective, pick.Accel)
	}
}
