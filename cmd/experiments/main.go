// Command experiments regenerates the paper's tables and figures. Each
// figure or section experiment maps to one step driver in
// internal/engine (over the internal/exp harness); the results are
// written as CSV files (one per figure) into -out and summarized on
// stdout.
//
// It is a thin adapter over internal/engine: the step drivers, CSV
// rendering, and cancellation are the same code spotlightd serves,
// which is what keeps a CLI-written fig6.csv byte-identical to one
// downloaded from a submitted job. SIGINT or SIGTERM stops the run at
// its next sample: the CSVs of completed steps stay written, the step
// in flight writes none, and the process exits 130 or 143.
//
// Examples:
//
//	experiments -fig 6                 # Figure 6 at quick scale
//	experiments -fig 6,9,10 -paper     # paper-scale sample budgets
//	experiments -exp surrogate         # §VII-D surrogate accuracy
//	experiments -all -models ResNet-50 # everything, one model
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spotlight/internal/engine"
	"spotlight/internal/eval"
)

func main() {
	// SIGINT/SIGTERM cancel ctx; run returns through its deferred
	// handlers, which flush the cache journal and the trace sink.
	ctx, stop := engine.ShutdownContext(context.Background())
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(engine.ExitCode(context.Cause(ctx)))
	}
}

func run(ctx context.Context) error {
	var (
		figs      = flag.String("fig", "", "comma-separated figure numbers to regenerate (6,7,8,9,10,11)")
		exps      = flag.String("exp", "", "comma-separated section experiments (surrogate, discussion, timeloop, topdesigns, simcheck, kernels)")
		all       = flag.Bool("all", false, "run every figure and experiment")
		paper     = flag.Bool("paper", false, "use paper-scale sample budgets (100/100, 10 trials)")
		hwSamples = flag.Int("hw", 0, "override hardware samples")
		swSamples = flag.Int("sw", 0, "override software samples")
		trials    = flag.Int("trials", 0, "override trial count")
		seed      = flag.Int64("seed", 1, "random seed")
		models    = flag.String("models", "", "comma-separated models (default: all five)")
		objective = flag.String("objective", "delay", "objective for Figure 6/10/11: delay or edp")
		outDir    = flag.String("out", "results", "directory for CSV output")
		parallel  = flag.Bool("parallel", false, "run independent trials concurrently")
		workers   = flag.Int("workers", 0, "concurrent layer searches per hardware sample (0 = GOMAXPROCS, 1 = sequential; results are bit-identical at every setting)")
		evalSpec  = flag.String("eval", "maestro",
			"evaluation pipeline spec: backend[,middleware...] — backends: "+
				strings.Join(eval.Backends(), ", ")+"; middlewares: cache, diskcache(path=FILE), guard, stats")
		cacheDir  = flag.String("cache-dir", "", "persist evaluation results to a crash-safe journal in this directory and reuse them across runs (CSVs are byte-identical warm or cold; disk faults degrade to in-memory evaluation)")
		evalStats = flag.Bool("eval-stats", false, "print per-backend evaluation and cache statistics at exit")

		traceFile   = flag.String("trace", "", "write structured JSONL trace events to this file (observe-only: every CSV is byte-identical with or without; inspect with tracestat)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text 0.0.4) and /debug/pprof/* on this address while running, e.g. 127.0.0.1:6060 (\":0\" picks a port)")
	)
	flag.Parse()

	tele, closeTele, err := engine.StartCLITelemetry("experiments", *traceFile, *metricsAddr, os.Stderr)
	if err != nil {
		return err
	}
	defer closeTele()

	// Build the pipeline once here: sharing one pipeline across every
	// requested step lets the memo cache deduplicate evaluations between
	// figures, and gives one set of counters to report at exit.
	pipe, err := eval.FromSpec(*evalSpec, eval.SpecOptions{
		Tracer:   tele.Tracer,
		CacheDir: *cacheDir,
	})
	if err != nil {
		if unknown, ok := engine.IsUnknownBackend(err); ok {
			fmt.Fprintln(os.Stderr, "experiments:", unknown)
			flag.Usage()
			os.Exit(2)
		}
		return err
	}
	defer func() {
		if cerr := pipe.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "experiments: disk cache:", cerr)
		}
	}()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		if f = strings.TrimSpace(f); f != "" {
			want["fig"+f] = true
		}
	}
	for _, e := range strings.Split(*exps, ",") {
		if e = strings.TrimSpace(e); e != "" {
			want[e] = true
		}
	}
	if *all {
		for _, k := range engine.StepKeys() {
			want[k] = true
		}
	}
	if len(want) == 0 {
		return fmt.Errorf("nothing to do: pass -fig, -exp, or -all")
	}
	// Canonical order (engine re-sorts anyway; this keeps the spec readable).
	var steps []string
	for _, k := range engine.StepKeys() {
		if want[k] {
			steps = append(steps, k)
			delete(want, k)
		}
	}
	for k := range want { //lint:allow maporder(error path: any leftover key is unknown; reported one at a time)
		return fmt.Errorf("unknown figure or experiment %q", k)
	}

	spec := engine.JobSpec{
		Kind:      engine.KindExperiment,
		Steps:     steps,
		Paper:     *paper,
		HWSamples: *hwSamples,
		SWSamples: *swSamples,
		Trials:    *trials,
		Seed:      *seed,
		Objective: *objective,
		Eval:      *evalSpec,
		Parallel:  *parallel,
		Workers:   *workers,
	}
	if *models != "" {
		spec.Models = strings.Split(*models, ",")
	}

	var stepStart time.Time
	_, err = engine.RunExperiments(ctx, spec, engine.ExperimentOptions{
		Eval:   pipe,
		Tracer: tele.Tracer,
		OnStepStart: func(key string) {
			stepStart = time.Now()
			fmt.Printf("== %s ==\n", key)
		},
		OnStepDone: func(res engine.StepResult) error {
			fmt.Print(res.Summary)
			for _, a := range res.Artifacts {
				path := filepath.Join(*outDir, a.Name)
				if err := writeFile(path, a.Data); err != nil {
					return fmt.Errorf("%s: %w", res.Key, err)
				}
				fmt.Printf("   wrote %s\n", path)
			}
			fmt.Printf("   done in %.1fs\n", time.Since(stepStart).Seconds())
			return nil
		},
	})
	if err != nil {
		return err
	}
	if *evalStats {
		fmt.Print(pipe.Report())
	}
	return nil
}

// writeFile writes one artifact. Close errors are where buffered write
// failures surface; "wrote" is only printed for files that actually
// landed.
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
