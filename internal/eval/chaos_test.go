package eval_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/eval"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/search"
	"spotlight/internal/workload"
)

// ChaosEvaluator wraps an evaluator and deterministically injects the
// faults a search must survive: errors, latency spikes, NaN and ±Inf
// costs, and panics. Each fault is decided by hashing (Seed, evaluated
// point), so a fixed seed injects the same faults at any worker count
// or interleaving, and a point evaluated twice fails the same way
// twice, as a deterministic backend would. It is safe for concurrent
// use iff the wrapped evaluator is.
//
// Rates are independent probabilities checked in order: latency (which
// delays but does not fail), then panic, then error, then — only if
// the inner evaluation succeeded — NaN, then ±Inf corruption.
type ChaosEvaluator struct {
	Inner       core.Evaluator
	Seed        uint64
	ErrRate     float64
	LatencyRate float64
	Latency     time.Duration
	NaNRate     float64
	InfRate     float64
	PanicRate   float64

	calls, errs, latencies, nans, infs, panics atomic.Int64
}

// InjectionCounts reports how many faults of each kind were injected.
type InjectionCounts struct{ Calls, Errs, Latencies, NaNs, Infs, Panics int64 }

func (c *ChaosEvaluator) Counts() InjectionCounts {
	return InjectionCounts{c.calls.Load(), c.errs.Load(), c.latencies.Load(),
		c.nans.Load(), c.infs.Load(), c.panics.Load()}
}

func (c *ChaosEvaluator) Name() string { return "chaos(" + c.Inner.Name() + ")" }

// draw maps (Seed, point hash, fault kind) to [0, 1) with a splitmix64
// finalizer.
func (c *ChaosEvaluator) draw(h, kind uint64) float64 {
	z := h ^ (c.Seed+kind)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11) / (1 << 53)
}

func (c *ChaosEvaluator) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	c.calls.Add(1)
	h := pointHash(eval.CanonicalKey(a, s, l))
	if c.draw(h, 1) < c.LatencyRate {
		c.latencies.Add(1)
		time.Sleep(c.Latency)
	}
	if c.draw(h, 2) < c.PanicRate {
		c.panics.Add(1)
		panic(fmt.Sprintf("injected chaos panic (point %016x)", h))
	}
	if c.draw(h, 3) < c.ErrRate {
		c.errs.Add(1)
		return maestro.Cost{}, fmt.Errorf("injected chaos fault (point %016x)", h)
	}
	cost, err := c.Inner.Evaluate(a, s, l)
	if err != nil {
		return cost, err
	}
	if c.draw(h, 4) < c.NaNRate {
		c.nans.Add(1)
		cost.DelayCycles, cost.EnergyNJ, cost.Utilization = math.NaN(), math.NaN(), math.NaN()
	} else if c.draw(h, 5) < c.InfRate {
		c.infs.Add(1)
		sign := 1
		if c.draw(h, 6) < 0.5 {
			sign = -1
		}
		cost.DelayCycles, cost.EnergyNJ = math.Inf(sign), math.Inf(sign)
	}
	return cost, nil
}

// pointHash folds an evaluation's canonical key into 64 bits with a
// splitmix64-style mixer. It is the chaos evaluator's point identity
// only, so its exact bits fix which points the tests' seeds fault.
func pointHash(k eval.Key) uint64 {
	z := uint64(0x5307159b0a575e11)
	for _, v := range [...]int{k.Accel.PEs, k.Accel.Width, k.Accel.SIMDLanes,
		k.Accel.RFKB, k.Accel.L2KB, k.Accel.NoCBW} {
		z = pointMix(z, uint64(v))
	}
	for i := 0; i < workload.NumDims; i++ {
		z = pointMix(z, uint64(k.Sched.T2[i]))
		z = pointMix(z, uint64(k.Sched.T1[i]))
		z = pointMix(z, uint64(k.Sched.OuterOrder[i]))
		z = pointMix(z, uint64(k.Sched.InnerOrder[i]))
	}
	z = pointMix(z, uint64(k.Sched.OuterUnroll))
	z = pointMix(z, uint64(k.Sched.InnerUnroll))
	for _, c := range k.Layer.Name {
		z = pointMix(z, uint64(c))
	}
	for _, v := range [...]int{int(k.Layer.Op), k.Layer.N, k.Layer.K, k.Layer.C,
		k.Layer.R, k.Layer.S, k.Layer.X, k.Layer.Y,
		k.Layer.StrideX, k.Layer.StrideY, k.Layer.Repeat} {
		z = pointMix(z, uint64(v))
	}
	return z
}

// pointMix is a splitmix64-style finalizer folding s into state z.
func pointMix(z, s uint64) uint64 {
	z ^= s + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// constEval returns one fixed cost for every point.
type constEval struct{}

func (constEval) Name() string { return "const" }

func (constEval) Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error) {
	return maestro.Cost{DelayCycles: 100, EnergyNJ: 5}, nil
}

// chaosPoint is a hand-built design point; i varies the accelerator so
// distinct i hash to distinct points.
func chaosPoint(i int) (hw.Accel, sched.Schedule, workload.Layer) {
	l := workload.Conv("p", 1, 8, 4, 3, 3, 6, 6)
	var s sched.Schedule
	for d := range s.T2 {
		s.T2[d], s.T1[d] = 2, 1
		s.OuterOrder[d], s.InnerOrder[d] = workload.AllDims[d], workload.AllDims[d]
	}
	return hw.Accel{PEs: 64 + i, Width: 8, SIMDLanes: 1, RFKB: 8, L2KB: 64, NoCBW: 32}, s, l
}

func TestChaosZeroRatesIsPassthrough(t *testing.T) {
	c := &ChaosEvaluator{Inner: maestro.New(), Seed: 1}
	a, s, l := chaosPoint(0)
	// The tiny hand-built schedule may be infeasible for maestro; what
	// matters is that chaos and inner agree exactly.
	gotCost, gotErr := c.Evaluate(a, s, l)
	wantCost, wantErr := maestro.New().Evaluate(a, s, l)
	if gotCost != wantCost || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("passthrough mismatch: (%+v, %v) vs (%+v, %v)", gotCost, gotErr, wantCost, wantErr)
	}
	if n := c.Counts(); n.Calls != 1 || n.Errs+n.NaNs+n.Infs+n.Panics+n.Latencies != 0 {
		t.Fatalf("counts = %+v, want one clean call", n)
	}
}

// chaosSignature records the outcome kinds of 40 distinct points.
func chaosSignature(seed uint64) []string {
	c := &ChaosEvaluator{Inner: constEval{}, Seed: seed, ErrRate: 0.3, NaNRate: 0.3, InfRate: 0.2, PanicRate: 0.2}
	var sig []string
	for i := 0; i < 40; i++ {
		a, s, l := chaosPoint(i)
		out := func() (kind string) {
			defer func() {
				if recover() != nil {
					kind = "panic"
				}
			}()
			cost, err := c.Evaluate(a, s, l)
			switch {
			case err != nil:
				return "error"
			case !cost.Finite():
				return "nonfinite"
			default:
				return "ok"
			}
		}()
		sig = append(sig, out)
	}
	return sig
}

func TestChaosInjectionIsDeterministic(t *testing.T) {
	a, b := chaosSignature(42), chaosSignature(42)
	kinds := map[string]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d diverged: %q vs %q", i, a[i], b[i])
		}
		kinds[a[i]] = true
	}
	for _, want := range []string{"ok", "error", "nonfinite", "panic"} {
		if !kinds[want] {
			t.Errorf("40 points at high rates never produced %q: %v", want, a)
		}
	}
}

func chaosConfig(seed int64, ev core.Evaluator) core.RunConfig {
	return core.RunConfig{
		Models: []workload.Model{{
			Name: "tiny",
			Layers: []workload.Layer{
				workload.Conv("a", 1, 32, 16, 3, 3, 10, 10),
				workload.Conv("b", 1, 64, 32, 1, 1, 8, 8).Times(2),
			},
		}},
		Space:     hw.EdgeSpace(),
		Budget:    hw.EdgeBudget(),
		Objective: core.MinEDP,
		HWSamples: 6,
		SWSamples: 4,
		Seed:      seed,
		Eval:      ev,
	}
}

// waitForGoroutines polls until the goroutine count returns to the
// baseline (plus slack for runtime helpers) or the deadline passes.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d now, baseline %d", runtime.NumGoroutine(), baseline)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func wellFormed(t *testing.T, name string, res core.Result) {
	t.Helper()
	prev := math.Inf(1)
	for i, h := range res.History {
		if h.Sample != i+1 {
			t.Errorf("%s: history[%d].Sample = %d, want %d", name, i, h.Sample, i+1)
		}
		if h.BestSoFar > prev {
			t.Errorf("%s: BestSoFar rose at sample %d: %v after %v", name, h.Sample, h.BestSoFar, prev)
		}
		prev = h.BestSoFar
	}
	for _, d := range res.Frontier {
		if math.IsNaN(d.Objective) {
			t.Errorf("%s: NaN objective on the frontier", name)
		}
	}
	for _, d := range res.Top {
		if math.IsNaN(d.Objective) || math.IsInf(d.Objective, 0) {
			t.Errorf("%s: non-finite objective %v among top designs", name, d.Objective)
		}
	}
}

// TestChaosEveryStrategySurvivesFaults runs each strategy against an
// evaluator that panics, fails, and returns NaN/±Inf costs, behind a
// guard with a timeout (so every call also takes the guard's goroutine
// path). The run must complete its full budget without panicking,
// deadlocking, or leaking goroutines, and produce a well-formed Result.
func TestChaosEveryStrategySurvivesFaults(t *testing.T) {
	strategies := []core.Strategy{
		core.NewSpotlight(), core.NewSpotlightV(), core.NewSpotlightA(), core.NewSpotlightF(),
		search.NewRandom(), search.NewGenetic(), search.NewConfuciuX(), search.NewHASCO(),
	}
	for _, strat := range strategies {
		t.Run(strat.Name(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			chaos := &ChaosEvaluator{Inner: maestro.New(), Seed: 11, ErrRate: 0.03, NaNRate: 0.05, InfRate: 0.03, PanicRate: 0.03}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := core.RunContext(ctx, chaosConfig(5, eval.Chain(chaos, eval.WithGuard(time.Minute))), strat)
			if err != nil && !errors.Is(err, core.ErrNoFeasible) {
				t.Fatalf("run failed: %v", err)
			}
			if err == nil && len(res.History) != 6 {
				t.Errorf("history has %d entries, want the full 6", len(res.History))
			}
			wellFormed(t, strat.Name(), res)
			if n := chaos.Counts(); n.Errs+n.NaNs+n.Infs+n.Panics == 0 {
				t.Logf("warning: seed injected no faults (%+v); consider raising rates", n)
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestChaosUnguardedPanicPropagates documents the contract split: the
// search runtime contains worker panics (no leaked goroutines, no torn
// state) but re-raises them to the caller — converting panics to
// recorded invalid samples is the guard layer's job, not the driver's.
func TestChaosUnguardedPanicPropagates(t *testing.T) {
	baseline := runtime.NumGoroutine()
	chaos := &ChaosEvaluator{Inner: maestro.New(), Seed: 2, PanicRate: 1}
	defer func() {
		if recover() == nil {
			t.Error("run with an always-panicking evaluator did not panic")
		}
		waitForGoroutines(t, baseline)
	}()
	_, _ = core.RunContext(context.Background(), chaosConfig(1, eval.Chain(chaos)), core.NewSpotlight())
}

// TestChaosDeadlineReturnsPartialResult injects latency so the run
// cannot finish its budget, and checks that RunContext honors the
// deadline promptly with a well-formed partial Result.
func TestChaosDeadlineReturnsPartialResult(t *testing.T) {
	baseline := runtime.NumGoroutine()
	chaos := &ChaosEvaluator{Inner: maestro.New(), Seed: 4, LatencyRate: 1, Latency: 2 * time.Millisecond}
	cfg := chaosConfig(9, chaos)
	cfg.HWSamples = 1000
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := core.RunContext(ctx, cfg, core.NewSpotlight())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("RunContext took %v to honor a 100ms deadline", elapsed)
	}
	if len(res.History) >= 1000 {
		t.Fatalf("history has %d entries despite the deadline", len(res.History))
	}
	wellFormed(t, "deadline", res)
	waitForGoroutines(t, baseline)
}
