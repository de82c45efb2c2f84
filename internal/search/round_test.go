package search

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/obs"
	"spotlight/internal/workload"
)

// stripElapsed zeroes the wall-clock column of a history so runs can be
// compared bit-for-bit; Elapsed is the one field the determinism
// contract excludes.
func stripElapsed(h []core.HistoryPoint) []core.HistoryPoint {
	out := make([]core.HistoryPoint, len(h))
	for i, p := range h {
		p.Elapsed = 0
		out[i] = p
	}
	return out
}

// unbatched hides RoundSize from its strategy's software proposers, so
// the driver runs them in rounds of one: the sequential reference that
// batched runs must reproduce. The search baselines' proposers implement
// no other optional interface, so the wrapper changes nothing else.
type unbatched struct{ core.Strategy }

func (u unbatched) NewSW(cfg core.RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) core.SWProposer {
	return struct{ core.SWProposer }{u.Strategy.NewSW(cfg, rng, a, l)}
}

// TestBatchedRunsBitIdentical is the flagship invariant of round
// batching at the driver level: for every strategy, History, Best and
// Top are bit-identical whether layer candidates are evaluated in
// batched rounds or one at a time, at 1 or 8 workers, traced or not.
func TestBatchedRunsBitIdentical(t *testing.T) {
	strategies := []func() core.Strategy{
		func() core.Strategy { return NewRandom() },
		func() core.Strategy { return NewGenetic() },
		func() core.Strategy { return NewConfuciuX() },
		func() core.Strategy { return NewHASCO() },
	}
	for _, mk := range strategies {
		name := mk().Name()
		t.Run(name, func(t *testing.T) {
			var ref core.Result
			first := true
			for _, traced := range []bool{false, true} {
				for _, batched := range []bool{false, true} {
					for _, workers := range []int{1, 8} {
						desc := fmt.Sprintf("batched=%v workers=%d traced=%v", batched, workers, traced)
						cfg := tinyConfig(42)
						// A budget past the GA's seeding phase, so its
						// rounds shrink to one mid-search.
						cfg.SWSamples = 2 * gaPopulation
						cfg.Workers = workers
						var buf bytes.Buffer
						var sink *obs.JSONL
						if traced {
							sink = obs.NewJSONL(&buf)
							cfg.Tracer = sink
						}
						s := mk()
						if !batched {
							s = unbatched{s}
						}
						res, err := core.Run(cfg, s)
						if err != nil {
							t.Fatalf("run (%s) failed: %v", desc, err)
						}
						if sink != nil {
							if err := sink.Close(); err != nil || buf.Len() == 0 {
								t.Fatalf("run (%s): trace of %d bytes, close: %v", desc, buf.Len(), err)
							}
						}
						if first { // sequential, serial, untraced
							ref, first = res, false
							continue
						}
						if !reflect.DeepEqual(stripElapsed(ref.History), stripElapsed(res.History)) {
							t.Errorf("History diverged (%s)", desc)
						}
						if !reflect.DeepEqual(ref.Best, res.Best) {
							t.Errorf("Best diverged (%s)", desc)
						}
						if !reflect.DeepEqual(ref.Top, res.Top) {
							t.Errorf("Top diverged (%s)", desc)
						}
					}
				}
			}
		})
	}
}

// TestRoundSizes pins each proposer's advertised round size to its
// feedback structure, the contract the layer-search round loop relies on.
func TestRoundSizes(t *testing.T) {
	cfg := tinyConfig(1)
	rng := rand.New(rand.NewSource(3))
	a := cfg.Space.Random(rng)
	l := tinyModel().Layers[0]
	newSW := func(s core.Strategy) core.RoundProposer {
		sw, ok := s.NewSW(cfg, rng, a, l).(core.RoundProposer)
		if !ok {
			t.Fatalf("%s software proposer does not implement RoundProposer", s.Name())
		}
		return sw
	}
	// HASCO's Suggest depends on every prior Observe, so its proposer
	// must leave the driver on rounds of one.
	if _, ok := NewHASCO().NewSW(cfg, rng, a, l).(core.RoundProposer); ok {
		t.Error("hasco software proposer implements RoundProposer; its rounds depend on feedback")
	}
	if _, ok := (unbatched{NewRandom()}).NewSW(cfg, rng, a, l).(core.RoundProposer); ok {
		t.Error("the unbatched wrapper leaves RoundSize visible")
	}
	if got := newSW(NewRandom()).RoundSize(); got != feedbackFreeRound {
		t.Errorf("random RoundSize = %d, want feedback-free", got)
	}
	if got := newSW(NewConfuciuX()).RoundSize(); got != feedbackFreeRound {
		t.Errorf("confuciux RoundSize = %d, want feedback-free", got)
	}
	// The GA batches the population seed as one round, then collapses to
	// sequential breeding.
	ga := newSW(NewGenetic())
	if got := ga.RoundSize(); got <= 1 {
		t.Errorf("seeding GA RoundSize = %d, want > 1", got)
	}
}
