package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

// FuzzParseOrder ensures arbitrary order strings never panic and are
// either rejected or round-trip losslessly.
func FuzzParseOrder(f *testing.F) {
	f.Add("N>K>C>R>S>X>Y")
	f.Add("Y>X>S>R>C>K>N")
	f.Add("")
	f.Add("N>N>N>N>N>N>N")
	f.Add("garbage>input")
	f.Fuzz(func(t *testing.T, s string) {
		order, err := parseOrder(s)
		if err != nil {
			return
		}
		if got := orderString(order); got != s {
			t.Fatalf("accepted order %q does not round-trip: %q", s, got)
		}
	})
}

// scriptedFaultEval corrupts the real cost model's answers according to
// a byte script: each evaluation consumes one opcode (cycling) choosing
// between a clean answer, a backend error, an invalid-design error, and
// NaN/±Inf cost corruption. It lives here rather than reusing the
// ChaosEvaluator of internal/eval's chaos tests because that is test
// code in a package that imports core.
type scriptedFaultEval struct {
	inner  Evaluator
	script []byte
	call   int
}

func (e *scriptedFaultEval) Name() string { return "scripted-faults" }

func (e *scriptedFaultEval) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	op := byte(0)
	if len(e.script) > 0 {
		op = e.script[e.call%len(e.script)]
	}
	e.call++
	cost, err := e.inner.Evaluate(a, s, l)
	switch op % 6 {
	case 1:
		return maestro.Cost{}, errors.New("fuzz: backend failure")
	case 2:
		cost.DelayCycles = math.NaN()
	case 3:
		cost.EnergyNJ = math.Inf(1)
	case 4:
		cost.DelayCycles = math.Inf(-1)
		cost.EnergyNJ = math.Inf(-1)
	case 5:
		return cost, fmt.Errorf("fuzz: %w", maestro.ErrInvalid)
	}
	return cost, err
}

// FuzzLayerSearchFaultSequences drives one per-layer software search
// against an evaluator misbehaving per an arbitrary fault script. The
// invariant: whatever the fault sequence, the LayerResult is either
// valid with a strictly finite cost and objective, or cleanly invalid
// with the zero cost — never a "valid" result carrying NaN/±Inf.
func FuzzLayerSearchFaultSequences(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5}, int64(2))
	f.Add([]byte{2, 2, 2, 2}, int64(3))
	f.Add([]byte{1, 5}, int64(4))
	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		cfg, err := tinyConfig(3).normalized()
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		cfg.Eval = &scriptedFaultEval{inner: maestro.New(), script: script}
		layer := cfg.Models[0].Layers[0]
		accel := cfg.Space.Random(rand.New(rand.NewSource(seed)))
		rng := xrand.New(deriveSeed(seed, 1, 0)).Rand
		sw := NewSpotlight().NewSW(cfg, rng, accel, layer)
		res := runLayerSearch(context.Background(), cfg, sw, accel, layer, 8, nil)
		if res.Valid {
			if !res.Cost.Finite() {
				t.Fatalf("valid result with non-finite cost: %+v", res.Cost)
			}
			obj := cfg.Objective.LayerCost(res.Cost)
			if math.IsNaN(obj) || math.IsInf(obj, 0) {
				t.Fatalf("valid result with non-finite objective %v", obj)
			}
		} else if res.Cost != (maestro.Cost{}) {
			t.Fatalf("invalid result carries a cost: %+v", res.Cost)
		}
	})
}
