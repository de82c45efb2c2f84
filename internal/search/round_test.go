package search

import (
	"math/rand"
	"reflect"
	"testing"

	"spotlight/internal/core"
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

// TestBatchedRunsBitIdentical is the flagship invariant of the batching
// issue at the driver level: for every strategy, History and Best are
// bit-identical whether layer candidates are evaluated through the
// round-batched fast path or the sequential loop, at any worker count.
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
			type variant struct {
				disableBatch bool
				workers      int
			}
			variants := []variant{
				{disableBatch: true, workers: 1}, // reference: sequential, serial
				{disableBatch: false, workers: 1},
				{disableBatch: true, workers: 8},
				{disableBatch: false, workers: 8},
			}
			var ref core.Result
			for vi, v := range variants {
				cfg := tinyConfig(42)
				cfg.DisableBatch = v.disableBatch
				cfg.Workers = v.workers
				res, err := core.Run(cfg, mk())
				if err != nil {
					t.Fatalf("run (batch=%v workers=%d) failed: %v", !v.disableBatch, v.workers, err)
				}
				if vi == 0 {
					ref = res
					continue
				}
				if !reflect.DeepEqual(stripElapsed(ref.History), stripElapsed(res.History)) {
					t.Errorf("History diverged (batch=%v workers=%d)", !v.disableBatch, v.workers)
				}
				if !reflect.DeepEqual(ref.Best, res.Best) {
					t.Errorf("Best diverged (batch=%v workers=%d)", !v.disableBatch, v.workers)
				}
				if !reflect.DeepEqual(ref.Top, res.Top) {
					t.Errorf("Top diverged (batch=%v workers=%d)", !v.disableBatch, v.workers)
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
	if got := newSW(NewRandom()).RoundSize(); got != feedbackFreeRound {
		t.Errorf("random RoundSize = %d, want feedback-free", got)
	}
	if got := newSW(NewConfuciuX()).RoundSize(); got != feedbackFreeRound {
		t.Errorf("confuciux RoundSize = %d, want feedback-free", got)
	}
	if got := newSW(NewHASCO()).RoundSize(); got != 1 {
		t.Errorf("hasco RoundSize = %d, want 1", got)
	}
	// The GA batches the population seed as one round, then collapses to
	// sequential breeding.
	ga := newSW(NewGenetic())
	if got := ga.RoundSize(); got <= 1 {
		t.Errorf("seeding GA RoundSize = %d, want > 1", got)
	}
}
