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
	"time"

	"spotlight/internal/core"
	"spotlight/internal/engine"
	"spotlight/internal/eval"
	"spotlight/internal/hw"
	"spotlight/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spotlight:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelsFlag = flag.String("models", "ResNet-50", "comma-separated DL models to co-design for")
		scale      = flag.String("scale", "edge", "hardware scale: edge or cloud")
		objective  = flag.String("objective", "delay", "objective to minimize: delay or edp")
		hwSamples  = flag.Int("hw", 100, "hardware samples")
		swSamples  = flag.Int("sw", 100, "software samples per layer per hardware sample")
		seed       = flag.Int64("seed", 1, "random seed")
		strategy   = flag.String("strategy", "spotlight", "search strategy: spotlight, spotlight-v, spotlight-a, spotlight-f, random, ga, confuciux, hasco")
		evalSpec   = flag.String("eval", "", "evaluation pipeline spec: backend[,middleware...], e.g. \"maestro\", \"sim,cache,guard\" (backends: "+strings.Join(eval.Backends(), ", ")+"; middlewares: cache, diskcache(path=FILE), guard, stats)")
		backend    = flag.String("backend", "", "deprecated alias for -eval with a bare backend name; prefer -eval \"name[,middleware...]\"")
		evalStats  = flag.Bool("eval-stats", false, "print per-backend evaluation and cache statistics after the run")
		historyCSV = flag.String("history", "", "write the per-sample convergence history to this CSV file")
		jsonOut    = flag.String("json", "", "write the winning design (accelerator + schedules) to this JSON file")
		verbose    = flag.Bool("v", false, "print per-layer schedules")
		frontier   = flag.Bool("frontier", false, "print the pareto frontier and the budget-closest selection")
		reevaluate = flag.String("reevaluate", "", "skip the search: load a design JSON (from -json) and re-cost it on the -eval pipeline")

		workers     = flag.Int("workers", 0, "concurrent layer searches per hardware sample (0 = one per core); results are identical at any setting")
		noBatch     = flag.Bool("nobatch", false, "disable the batched candidate-evaluation fast path (results are bit-identical either way; for A/B verification and bisecting)")
		timeout     = flag.Duration("timeout", 0, "overall search deadline (e.g. 30m); on expiry the partial result is reported (0 = none)")
		checkpoint  = flag.String("checkpoint", "", "write a resumable checkpoint to this file after every hardware sample (atomic replace)")
		resumeFrom  = flag.String("resume", "", "resume from a checkpoint file; models, seed, strategy, and budgets must match the original run")
		evalTimeout = flag.Duration("eval-timeout", 0, "abandon any single cost-model evaluation after this long (0 = none)")
		evalRetries = flag.Int("eval-retries", 0, "retries for transient cost-model faults, with exponential backoff")
		cacheDir    = flag.String("cache-dir", "", "persist evaluation results to a crash-safe journal in this directory and reuse them across runs (results are bit-identical warm or cold; disk faults degrade to in-memory evaluation)")

		traceFile   = flag.String("trace", "", "write structured JSONL trace events to this file (observe-only: results are bit-identical with or without; inspect with tracestat)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (JSON, or Prometheus text with ?format=prometheus or Accept: text/plain) and /debug/pprof/* on this address while running, e.g. 127.0.0.1:6060 (\":0\" picks a port)")
	)
	flag.Parse()

	tele, closeTele, err := engine.StartCLITelemetry("spotlight", *traceFile, *metricsAddr, os.Stderr)
	if err != nil {
		return err
	}
	defer closeTele()

	// The whole evaluation stack — backend, memo cache, fault guard,
	// stats — is assembled by internal/eval from one spec string.
	// -eval-timeout / -eval-retries configure the guard layer and force
	// one into the chain if the spec named none.
	spec := *evalSpec
	if spec == "" {
		spec = *backend // deprecated alias: bare backend name
	}
	if spec == "" {
		spec = "maestro"
	}
	pipe, err := eval.FromSpec(spec, eval.SpecOptions{
		Guard: eval.GuardOptions{
			Timeout: *evalTimeout,
			Retries: *evalRetries,
			Backoff: 50 * time.Millisecond,
			Seed:    *seed,
		},
		Tracer:   tele.Tracer,
		CacheDir: *cacheDir,
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
		Kind:         engine.KindSearch,
		Models:       strings.Split(*modelsFlag, ","),
		Scale:        *scale,
		Objective:    *objective,
		Strategy:     *strategy,
		HWSamples:    *hwSamples,
		SWSamples:    *swSamples,
		Seed:         *seed,
		Eval:         spec,
		Workers:      *workers,
		DisableBatch: *noBatch,
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
	var cper *engine.FileCheckpointer
	if *checkpoint != "" {
		cper = &engine.FileCheckpointer{Path: *checkpoint}
		opts.OnCheckpoint = cper.OnCheckpoint
	}

	// SIGINT, SIGTERM (and -timeout) stop the search cooperatively: the
	// run finishes its current hardware sample's bookkeeping, the last
	// checkpoint on disk stays valid, the disk-cache journal is flushed
	// and closed by the deferred handlers above, and the partial result
	// is reported.
	ctx, stop := engine.ShutdownContext(context.Background())
	defer stop()
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
		if cper != nil {
			if saved, werr := cper.SaveLast(); werr != nil {
				fmt.Fprintln(os.Stderr, "spotlight: saving final checkpoint:", werr)
			} else if saved {
				fmt.Fprintf(os.Stderr, "spotlight: checkpoint saved; continue with -resume %s\n", *checkpoint)
			}
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
		_, budget, err := engine.ResolveScale(*scale)
		if err != nil {
			return err
		}
		reportFrontier(res, budget)
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
	var energy, delay float64
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
		rep := float64(layer.Repeat)
		energy += rep * c.EnergyNJ
		delay += rep * c.DelayCycles
		fmt.Printf("  %-16s delay=%.4g (was %.4g)  energy=%.4g nJ\n",
			le.Layer, c.DelayCycles, le.DelayCycles, c.EnergyNJ)
	}
	if infeasible > 0 {
		fmt.Printf("%d layers infeasible on this backend — re-tune with -strategy spotlight -eval %s\n",
			infeasible, ev.Name())
		return nil
	}
	fmt.Printf("aggregate %s = %.6g (was %.6g on %s)\n",
		obj, core.AggregateObjective(obj, energy, delay), e.Value, e.Tool)
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
