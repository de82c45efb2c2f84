package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/engine"
	"spotlight/internal/eval"
	"spotlight/internal/obs"
)

// codesignWorkload is an in-process co-design workload: a fixed list of
// small Spotlight searches ("jobs", one per derived seed) run back to back
// through one shared evaluation pipeline, the way a CLI user runs them.
type codesignWorkload struct {
	strategy string
	model    string
	eval     string
	hw, sw   int
	jobs     int
	seedSalt int64
}

// specs derives the workload's job list from the benchmark seed.
func (w codesignWorkload) specs(seed int64) []engine.JobSpec {
	rng := rand.New(rand.NewSource(seed ^ w.seedSalt))
	out := make([]engine.JobSpec, w.jobs)
	for i := range out {
		out[i] = engine.JobSpec{
			Kind:      engine.KindSearch,
			Models:    []string{w.model},
			Scale:     "edge",
			Strategy:  w.strategy,
			HWSamples: w.hw,
			SWSamples: w.sw,
			Seed:      rng.Int63n(1<<31) + 1,
			Eval:      w.eval,
			Workers:   runtime.GOMAXPROCS(0),
		}
	}
	return out
}

// run executes one repetition: set-up (pipeline, configs, strategies),
// then the measured jobs. With rec non-nil it is the traced variant: the
// program traces into rec and the strategy, proposers and evaluator are
// wrapped in timing decorators.
func (w codesignWorkload) run(seed int64, rec *recorder, res *repResult) error {
	var tr obs.Tracer
	if rec != nil {
		tr = rec
	}
	pipe, err := eval.FromSpec(w.eval, eval.SpecOptions{Tracer: tr})
	if err != nil {
		return err
	}
	defer pipe.Close()
	var ev core.Evaluator = pipe
	if rec != nil {
		if ev, err = wrapEvaluator(pipe, rec); err != nil {
			return err
		}
	}
	type job struct {
		cfg   core.RunConfig
		strat core.Strategy
	}
	specs := w.specs(seed)
	jobs := make([]job, len(specs))
	for i, spec := range specs {
		cfg, strat, err := spec.SearchConfig(ev, tr)
		if err != nil {
			return err
		}
		if rec != nil {
			strat = &tracedStrategy{inner: strat, rec: rec}
		}
		jobs[i] = job{cfg, strat}
	}
	res.SetupEndUnixNano = time.Now().UnixNano()

	m := startMeasure()
	digest := sha256.New()
	var bests []float64
	for i, j := range jobs {
		t := time.Now()
		var sp *obs.Span
		if rec != nil {
			sp = obs.StartSpan(rec, "bench.job")
			j.cfg.Span = sp
		}
		out, err := core.RunContext(context.Background(), j.cfg, j.strat)
		sp.End()
		if ts, ok := j.strat.(*tracedStrategy); ok {
			ts.finish()
		}
		res.JobMS = append(res.JobMS, obs.MS(time.Since(t)))
		res.Attempted++
		// A search that finds no feasible design has still completed: its
		// History is its deterministic output.
		if errors.Is(err, core.ErrNoFeasible) {
			digestResult(digest, out)
			continue
		}
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("job %d (seed %d): %v", i, specs[i].Seed, err))
			continue
		}
		digestResult(digest, out)
		bests = append(bests, out.Best.Objective)
	}
	m.stop(res)

	res.Best = median(bests)
	stats := pipe.Stats().Snapshot()
	cache := pipe.Cache().Snapshot()
	res.Evals = cache.Hits + cache.Misses
	for _, v := range []int64{stats.Evals, stats.OK, stats.Invalid, stats.Errors, cache.Hits, cache.Misses} {
		binary.Write(digest, binary.LittleEndian, v)
	}
	res.Digest = fmt.Sprintf("%x", digest.Sum(nil))

	res.Layers = pipelineLayers(pipe)
	if rec != nil {
		addCoreLayers(res.Layers, rec, runtime.GOMAXPROCS(0), len(jobs))
	}
	return nil
}

// pipelineLayers reads the eval per-layer metrics off the pipeline's own
// counters.
func pipelineLayers(pipe *eval.Pipeline) map[string]float64 {
	stats := pipe.Stats().Snapshot()
	cache := pipe.Cache().Snapshot()
	return map[string]float64{
		"eval.cache.hits":            float64(cache.Hits),
		"eval.cache.misses":          float64(cache.Misses),
		"eval.cache.coalesced":       float64(cache.Coalesced),
		"eval.cache.hit_ratio":       ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)),
		"eval.backend.evals":         float64(stats.Evals),
		"eval.backend.busy_ms":       obs.MS(stats.Latency),
		"eval.backend.invalid_ratio": ratio(float64(stats.Invalid), float64(stats.Evals)),
		"sim.simulated":              float64(stats.Events["simulated"]),
		"sim.fallback":               float64(stats.Events["fallback"]),
	}
}

// digestResult folds everything deterministic about a search result into
// h: every History point except its wall-clock Elapsed, and the best
// design bit for bit.
func digestResult(h hash.Hash, r core.Result) {
	f := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	for _, p := range r.History {
		binary.Write(h, binary.LittleEndian, int64(p.Sample))
		f(p.Value)
		f(p.BestSoFar)
	}
	fmt.Fprintf(h, "%s|", r.Best.Accel)
	f(r.Best.Objective)
	for _, lr := range r.Best.Layers {
		fmt.Fprintf(h, "%s/%s|%s|%v|", lr.Model, lr.Layer.Name, lr.Schedule, lr.Valid)
		f(lr.Cost.DelayCycles)
		f(lr.Cost.EnergyNJ)
	}
}

// addCoreLayers derives the core, gp and pool per-layer metrics from the
// decorators' counters and the program's own span tree.
func addCoreLayers(l map[string]float64, rec *recorder, workers, jobs int) {
	suggestN := float64(rec.swSuggestN.Load())
	suggestMS := nsMS(rec.swSuggestNS.Load())
	observeMS := nsMS(rec.swObserveNS.Load())
	evalMS := nsMS(rec.evalNS.Load())
	layerBusy := nsMS(rec.layerBusyNS.Load())
	l["core.sw_suggest.calls"] = suggestN
	l["core.sw_suggest.busy_ms"] = suggestMS
	l["core.sw_suggest.us_per_call"] = 1000 * ratio(suggestMS, suggestN)
	l["core.sw_observe.busy_ms"] = observeMS
	l["core.hw_suggest.busy_ms"] = nsMS(rec.hwSuggestNS.Load())
	l["core.hw_observe.busy_ms"] = nsMS(rec.hwObserveNS.Load())
	calls, items := float64(rec.evalCalls.Load()), float64(rec.evalItems.Load())
	l["eval.pipeline.calls"] = calls
	l["eval.pipeline.items"] = items
	l["eval.pipeline.busy_ms"] = evalMS
	l["eval.pipeline.batch_mean"] = ratio(items, calls)
	l["pool.proposer_share"] = ratio(suggestMS+observeMS, layerBusy)
	l["pool.eval_share"] = ratio(evalMS, layerBusy)
	events := rec.trace()
	addTraceLayers(l, events, layerBusy, workers)
	l["obs.trace_events_per_job"] = float64(len(events)) / float64(jobs)
}

// addTraceLayers derives the metrics that come from the program's own
// trace: surrogate fits, layer-search busy time, pool idleness and self
// times. layerBusy is the measured layer-search time, or 0 to take it
// from the sw.layer spans.
func addTraceLayers(l map[string]float64, events []obs.Event, layerBusy float64, workers int) {
	var fits, fitMS, trialMS, layerSpanMS float64
	for _, e := range events {
		switch {
		case e.Type == obs.DABOFit:
			fits++
			fitMS += e.DurMS
		case e.Type == obs.SpanEnd && e.Detail == "trial":
			trialMS += e.DurMS
		case e.Type == obs.SpanEnd && e.Detail == "sw.layer":
			layerSpanMS += e.DurMS
		}
	}
	if layerBusy == 0 {
		layerBusy = layerSpanMS
	}
	nodes := spanTree(events)
	l["gp.fit.count"] = fits
	l["gp.fit.busy_ms"] = fitMS
	l["pool.layer_busy_ms"] = layerBusy
	l["pool.idle_ratio"] = 1 - ratio(layerBusy, float64(workers)*trialMS)
	l["core.trial.self_ms"] = selfMS(nodes, "trial")
	l["core.sw_layer.self_ms"] = selfMS(nodes, "sw.layer")
}

func nsMS(ns int64) float64 { return obs.MS(time.Duration(ns)) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
