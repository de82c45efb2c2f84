package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// scriptEval is a deterministic evaluator without a batch method: call i
// returns delay i+1, and every 3rd call is an ErrInvalid verdict.
type scriptEval struct{ calls int }

func (e *scriptEval) Name() string { return "script" }

func (e *scriptEval) Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error) {
	e.calls++
	if e.calls%3 == 0 {
		return maestro.Cost{}, fmt.Errorf("call %d: %w", e.calls, maestro.ErrInvalid)
	}
	d := float64(e.calls)
	return maestro.Cost{DelayCycles: d, EnergyNJ: d, AreaMM2: 1, PowerMW: 1, Utilization: 1}, nil
}

// TestEvaluateBatchFallback: EvaluateBatch over an evaluator without a
// native batch method degrades to a per-item loop in order.
func TestEvaluateBatchFallback(t *testing.T) {
	ev := &scriptEval{}
	ss := make([]sched.Schedule, 7)
	costs, errs := EvaluateBatch(ev, hw.Accel{}, ss, workload.Layer{})
	if ev.calls != len(ss) {
		t.Fatalf("fallback made %d calls, want %d", ev.calls, len(ss))
	}
	for i := range ss {
		if (i+1)%3 == 0 {
			if !errors.Is(errs[i], maestro.ErrInvalid) {
				t.Fatalf("item %d: want ErrInvalid, got %v", i, errs[i])
			}
			continue
		}
		if errs[i] != nil || costs[i].DelayCycles != float64(i+1) {
			t.Fatalf("item %d: cost=%+v err=%v", i, costs[i], errs[i])
		}
	}
}

// roundRecorder is a RoundProposer that records the interleaving of
// Suggest and Observe calls, so tests can check the driver drains whole
// rounds before feeding back.
type roundRecorder struct {
	round    int // value RoundSize reports
	suggests int
	log      []string // "s" per Suggest, "o" per Observe
}

func (r *roundRecorder) RoundSize() int { return r.round }

func (r *roundRecorder) Suggest() sched.Schedule {
	r.suggests++
	r.log = append(r.log, "s")
	var s sched.Schedule
	s.T2[0] = r.suggests // distinguishable, validity irrelevant to the mock eval
	return s
}

func (r *roundRecorder) Observe(sched.Schedule, float64, error) {
	r.log = append(r.log, "o")
}

// TestBatchedRoundClamping: an effectively unbounded RoundSize is capped
// at the remaining budget — exactly budget Suggests, all ahead of their
// round's Observes — and the best result matches the sequential replay.
func TestBatchedRoundClamping(t *testing.T) {
	const budget = 10
	cfg := RunConfig{Eval: &scriptEval{}, Objective: MinDelay}
	sw := &roundRecorder{round: 1 << 20}
	res := runLayerSearch(context.Background(), cfg, sw, hw.Accel{}, workload.Layer{Name: "x"}, budget, nil)
	if sw.suggests != budget {
		t.Fatalf("driver drew %d suggestions, want %d", sw.suggests, budget)
	}
	for i, c := range sw.log[:budget] {
		if c != "s" {
			t.Fatalf("call %d is %q; one unbounded round must suggest everything first", i, c)
		}
	}
	if len(sw.log) != 2*budget {
		t.Fatalf("%d calls logged, want %d (every suggestion observed)", len(sw.log), 2*budget)
	}
	if !res.Valid || res.Cost.DelayCycles != 1 {
		t.Fatalf("best = %+v, want the first (cheapest) scripted cost", res)
	}
}

// TestBatchedMatchesSequentialDriver: driving a round-size-3 proposer
// directly and through a wrapper that hides RoundSize (so the driver
// runs rounds of one) produces identical LayerResults and identical
// proposer call counts against the scripted evaluator.
func TestBatchedMatchesSequentialDriver(t *testing.T) {
	const budget = 8
	run := func(hide bool) (LayerResult, []string) {
		cfg := RunConfig{Eval: &scriptEval{}, Objective: MinDelay}
		rec := &roundRecorder{round: 3}
		var sw SWProposer = rec
		if hide {
			sw = struct{ SWProposer }{rec}
		}
		res := runLayerSearch(context.Background(), cfg, sw, hw.Accel{}, workload.Layer{Name: "x"}, budget, nil)
		return res, rec.log
	}
	batched, blog := run(false)
	sequential, slog := run(true)
	if batched != sequential {
		t.Fatalf("results diverge:\nbatched:    %+v\nsequential: %+v", batched, sequential)
	}
	if len(blog) != len(slog) || len(blog) != 2*budget {
		t.Fatalf("call logs have %d and %d entries, want %d", len(blog), len(slog), 2*budget)
	}
	if slices.Equal(blog, slog) {
		t.Fatal("the wrapper did not change the interleaving; rounds of one were never driven")
	}
}
