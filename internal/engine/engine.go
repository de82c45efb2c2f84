// Package engine is the reusable run engine behind the CLIs and the
// spotlightd job server. Before it existed, cmd/spotlight and
// cmd/experiments each carried a private copy of the same orchestration:
// translating user-facing option strings into core/exp configurations,
// assembling the evaluation pipeline from a spec string, starting the
// telemetry bundle, wiring checkpoint/resume, and handling
// SIGINT/SIGTERM. This package is that orchestration, hoisted once:
//
//   - JobSpec is the serializable description of one unit of work — a
//     single co-design search (cmd/spotlight's domain) or a batch of
//     experiment steps (cmd/experiments' domain). Its fields map 1:1
//     onto the CLI flags and onto spotlightd's submit-body JSON, and
//     SearchConfig/ExpConfig are the one translation from spec to
//     core.RunConfig / exp.Config, so every entry point builds runs the
//     same way.
//   - RunSearch / RunExperiments execute a spec. They are relocations of
//     the CLI orchestration, not reimplementations: a fig6 CSV produced
//     through RunExperiments is byte-identical to the one the
//     pre-refactor CLI wrote, which is what lets the root package's
//     TestEndToEndInvariants diff a served artifact against the CLI's
//     file.
//   - Runner is the job server core: a FIFO queue drained by a bounded
//     worker pool, per-job cancellation via core.RunContext, in-memory
//     checkpoint retention for resume, a per-job TraceBuffer feeding
//     SSE subscribers, and one shared PipelineSet so concurrent jobs
//     with the same eval spec share a memo cache (and disk journal) and
//     deduplicate evaluations.
//   - ShutdownContext is the one signal path: SIGINT/SIGTERM cancel a
//     context with the signal as its cause, every search and experiment
//     stops on that context at its next sample, and ExitCode maps the
//     cause to the CLI's exit status.
//
// Everything here is orchestration: the determinism contracts live
// below, in core/eval/exp, and the engine neither adds wall-clock nor
// randomness to any search trajectory.
package engine

import (
	"errors"
	"fmt"
	"strings"

	"spotlight/internal/core"
	"spotlight/internal/eval"
	"spotlight/internal/exp"
	"spotlight/internal/hw"
	"spotlight/internal/obs"
	"spotlight/internal/search"
	"spotlight/internal/workload"
)

// Job kinds. A search job is one co-design run (cmd/spotlight); an
// experiment job regenerates paper figures/tables (cmd/experiments).
const (
	KindSearch     = "search"
	KindExperiment = "experiment"
)

// JobSpec describes one unit of work. It is the wire format of
// spotlightd's POST /jobs body and the internal form both CLIs translate
// their flags into; zero values mean "the CLI default".
type JobSpec struct {
	// Kind is KindSearch (default) or KindExperiment.
	Kind string `json:"kind,omitempty"`
	// Models are DL model names (workload.ByName); a search job defaults
	// to ResNet-50, an experiment job to all five paper models.
	Models []string `json:"models,omitempty"`
	// Scale is the hardware scale: "edge" (default) or "cloud".
	// Experiment steps with a fixed scale ignore it.
	Scale string `json:"scale,omitempty"`
	// Objective is "delay" (default) or "edp".
	Objective string `json:"objective,omitempty"`
	// Strategy names the search strategy for search jobs; default
	// "spotlight". See StrategyByName.
	Strategy string `json:"strategy,omitempty"`
	// HWSamples/SWSamples are the sample budgets. 0 means the kind's
	// default: 100/100 for search (the paper's setting), the quick-scale
	// exp defaults for experiments.
	HWSamples int `json:"hw_samples,omitempty"`
	SWSamples int `json:"sw_samples,omitempty"`
	// Trials is the experiment trial count (0 = the exp default).
	Trials int `json:"trials,omitempty"`
	// Paper selects paper-scale experiment budgets (exp.Paper).
	Paper bool `json:"paper,omitempty"`
	// Seed is the random seed; 0 means 1, the CLI default.
	Seed int64 `json:"seed,omitempty"`
	// Eval is the evaluation pipeline spec (eval.FromSpec syntax),
	// e.g. "maestro" or "sim,cache,stats"; empty means "maestro".
	Eval string `json:"eval,omitempty"`
	// Workers bounds concurrent layer searches per hardware sample
	// (0 = GOMAXPROCS). Results are bit-identical at any setting.
	Workers int `json:"workers,omitempty"`
	// Parallel runs independent experiment trials concurrently.
	Parallel bool `json:"parallel,omitempty"`
	// Steps are the experiment step keys to run (see StepKeys); they
	// execute in canonical order whatever order they are listed in.
	Steps []string `json:"steps,omitempty"`
}

// Normalized fills the kind-independent defaults, returning a copy. The
// zero-to-default mapping mirrors the CLI flag defaults, so a minimal
// JSON body submitted to spotlightd behaves like a bare CLI invocation.
func (s JobSpec) Normalized() JobSpec {
	if s.Kind == "" {
		s.Kind = KindSearch
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Eval == "" {
		s.Eval = "maestro"
	}
	if s.Objective == "" {
		s.Objective = "delay"
	}
	if s.Kind == KindSearch {
		if s.Scale == "" {
			s.Scale = "edge"
		}
		if s.Strategy == "" {
			s.Strategy = "spotlight"
		}
		if s.HWSamples <= 0 {
			s.HWSamples = 100
		}
		if s.SWSamples <= 0 {
			s.SWSamples = 100
		}
		if len(s.Models) == 0 {
			s.Models = []string{"ResNet-50"}
		}
	}
	return s
}

// Validate checks everything about a spec that can be checked without
// building an evaluation pipeline: the kind, model names, scale,
// objective, strategy, and experiment step keys. The eval spec itself is
// validated where the pipeline is built (PipelineSet.Get), so unknown
// backends surface as *eval.UnknownBackendError there.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case KindSearch:
		if _, err := ResolveModels(s.Models); err != nil {
			return err
		}
		if _, err := hw.ScaleByName(s.Scale); err != nil {
			return err
		}
		if _, err := StrategyByName(s.Strategy); err != nil {
			return err
		}
	case KindExperiment:
		if len(s.Steps) == 0 {
			return fmt.Errorf("engine: experiment job with no steps (known steps: %s)",
				strings.Join(StepKeys(), ", "))
		}
		known := map[string]bool{}
		for _, k := range StepKeys() {
			known[k] = true
		}
		for _, k := range s.Steps {
			if !known[k] {
				return fmt.Errorf("engine: unknown experiment step %q (known steps: %s)",
					k, strings.Join(StepKeys(), ", "))
			}
		}
		for _, name := range s.Models {
			if _, err := workload.ByName(strings.TrimSpace(name)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("engine: unknown job kind %q (kinds: %s, %s)", s.Kind, KindSearch, KindExperiment)
	}
	if _, err := ResolveObjective(s.Objective); err != nil {
		return err
	}
	return nil
}

// ResolveModels maps model names (whitespace-tolerant) onto workloads.
func ResolveModels(names []string) ([]workload.Model, error) {
	var models []workload.Model
	for _, name := range names {
		m, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("engine: no models named")
	}
	return models, nil
}

// ResolveObjective maps an objective name onto the core objective.
func ResolveObjective(name string) (core.Objective, error) {
	switch name {
	case "delay":
		return core.MinDelay, nil
	case "edp":
		return core.MinEDP, nil
	}
	return 0, fmt.Errorf("unknown objective %q", name)
}

// StrategyByName constructs the named search strategy: the Spotlight
// family, random, GA, and the two prior-work co-design tools.
func StrategyByName(name string) (core.Strategy, error) {
	switch name {
	case "spotlight":
		return core.NewSpotlight(), nil
	case "spotlight-v":
		return core.NewSpotlightV(), nil
	case "spotlight-a":
		return core.NewSpotlightA(), nil
	case "spotlight-f":
		return core.NewSpotlightF(), nil
	case "random":
		return search.NewRandom(), nil
	case "ga":
		return search.NewGenetic(), nil
	case "confuciux":
		return search.NewConfuciuX(), nil
	case "hasco":
		return search.NewHASCO(), nil
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

// SearchConfig translates a search spec into the core run configuration
// and strategy — the one place flag/JSON values become a core.RunConfig,
// relocated from cmd/spotlight. Checkpoint and resume wiring is the
// caller's (RunSearch's options), since it differs between a CLI writing
// files and a server retaining snapshots in memory.
func (s JobSpec) SearchConfig(ev core.Evaluator, tr obs.Tracer) (core.RunConfig, core.Strategy, error) {
	s = s.Normalized()
	models, err := ResolveModels(s.Models)
	if err != nil {
		return core.RunConfig{}, nil, err
	}
	scale, err := hw.ScaleByName(s.Scale)
	if err != nil {
		return core.RunConfig{}, nil, err
	}
	obj, err := ResolveObjective(s.Objective)
	if err != nil {
		return core.RunConfig{}, nil, err
	}
	strat, err := StrategyByName(s.Strategy)
	if err != nil {
		return core.RunConfig{}, nil, err
	}
	return core.RunConfig{
		Models:    models,
		Space:     scale.Space,
		Budget:    scale.Budget,
		Objective: obj,
		HWSamples: s.HWSamples,
		SWSamples: s.SWSamples,
		Seed:      s.Seed,
		Eval:      ev,
		Workers:   s.Workers,
		Tracer:    tr,
	}, strat, nil
}

// ExpConfig translates an experiment spec into the exp harness
// configuration, relocated verbatim from cmd/experiments: exp defaults
// (or paper scale), then the spec's overrides. The evaluator is built by
// the caller so one pipeline can be shared across steps and across
// concurrent jobs.
func (s JobSpec) ExpConfig(ev core.Evaluator, tr obs.Tracer) (exp.Config, error) {
	s = s.Normalized()
	cfg := exp.Default()
	if s.Paper {
		cfg = exp.Paper()
	}
	cfg.Seed = s.Seed
	if s.HWSamples > 0 {
		cfg.HWSamples = s.HWSamples
	}
	if s.SWSamples > 0 {
		cfg.SWSamples = s.SWSamples
	}
	if s.Trials > 0 {
		cfg.Trials = s.Trials
	}
	cfg.Parallel = s.Parallel
	cfg.Workers = s.Workers
	for _, m := range s.Models {
		cfg.Models = append(cfg.Models, strings.TrimSpace(m))
	}
	obj, err := ResolveObjective(s.Objective)
	if err != nil {
		return cfg, err
	}
	cfg.Objective = obj
	cfg.Eval = ev
	cfg.Tracer = tr
	return cfg, nil
}

// IsUnknownBackend reports whether err is (or wraps) the typed
// unknown-backend error, exposing it for usage-message handling without
// every caller importing eval.
func IsUnknownBackend(err error) (*eval.UnknownBackendError, bool) {
	var unknown *eval.UnknownBackendError
	if errors.As(err, &unknown) {
		return unknown, true
	}
	return nil, false
}
