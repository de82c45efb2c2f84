package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// runCapturing runs the config to completion while keeping every
// checkpoint the driver emits.
func runCapturing(t *testing.T, cfg RunConfig, strat Strategy) (Result, []*Checkpoint) {
	t.Helper()
	var cps []*Checkpoint
	cfg.OnCheckpoint = func(cp *Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}
	res, err := Run(cfg, strat)
	if err != nil {
		t.Fatalf("full run failed: %v", err)
	}
	return res, cps
}

// writeReadCheckpoint round-trips a checkpoint through a file on disk.
func writeReadCheckpoint(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := WriteCheckpoint(f, cp); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	rt, err := ReadCheckpoint(f)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	return rt
}

// expectSameOutcome asserts that two results agree on everything a
// search produces except wall-clock timings.
func expectSameOutcome(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Best, got.Best) {
		t.Errorf("%s: Best diverged:\nwant %+v\ngot  %+v", label, want.Best, got.Best)
	}
	if !reflect.DeepEqual(stripElapsed(want.History), stripElapsed(got.History)) {
		t.Errorf("%s: History diverged:\nwant %+v\ngot  %+v", label, want.History, got.History)
	}
	if !reflect.DeepEqual(want.Frontier, got.Frontier) {
		t.Errorf("%s: Frontier diverged (%d vs %d designs)", label, len(want.Frontier), len(got.Frontier))
	}
	if !reflect.DeepEqual(want.Top, got.Top) {
		t.Errorf("%s: Top diverged (%d vs %d designs)", label, len(want.Top), len(got.Top))
	}
}

// TestCheckpointResumeBitIdentical is the tentpole guarantee: killing a
// run after any hardware sample and resuming from its checkpoint yields
// exactly the uninterrupted run's result — for proposers with learned
// state (Spotlight's daBO, SpotlightF's fixed-dataflow variant) and at
// any worker count, including resuming under a different one.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	strategies := map[string]func() Strategy{
		"Spotlight":  func() Strategy { return NewSpotlight() },
		"SpotlightF": func() Strategy { return NewSpotlightF() },
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(3)
			cfg.Workers = 1
			full, cps := runCapturing(t, cfg, mk())
			if len(cps) != cfg.HWSamples {
				t.Fatalf("captured %d checkpoints, want %d", len(cps), cfg.HWSamples)
			}
			for _, k := range []int{1, 4, 7} {
				for _, workers := range []int{1, 0} {
					rcfg := tinyConfig(3)
					rcfg.Workers = workers
					rcfg.Resume = cps[k-1]
					res, err := Run(rcfg, mk())
					if err != nil {
						t.Fatalf("resume from sample %d (workers %d) failed: %v", k, workers, err)
					}
					label := name
					expectSameOutcome(t, label, full, res)
				}
			}
		})
	}
}

// TestCheckpointJSONRoundTrip writes a mid-run checkpoint to disk, reads
// it back, and resumes from the decoded copy: serialization must not
// perturb a single bit of the outcome. Go's float64 JSON encoding is
// shortest-round-trip, so exact equality is achievable and required.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	cfg := tinyConfig(3)
	cfg.Workers = 1
	full, cps := runCapturing(t, cfg, NewSpotlight())

	rt := writeReadCheckpoint(t, cps[3])
	if !reflect.DeepEqual(cps[3], rt) {
		t.Fatalf("checkpoint did not survive the JSON round trip:\nwant %+v\ngot  %+v", cps[3], rt)
	}
	rcfg := tinyConfig(3)
	rcfg.Resume = rt
	res, err := Run(rcfg, NewSpotlight())
	if err != nil {
		t.Fatalf("resume from decoded checkpoint failed: %v", err)
	}
	expectSameOutcome(t, "json-roundtrip", full, res)
}

// TestCheckpointStaysValidAsRunContinues: a checkpoint shares its
// designs' Layers with the run, which never writes them once a design
// is built. The checkpoint of sample 1 encodes to the same bytes after
// the run has finished, and after two runs have resumed from it.
func TestCheckpointStaysValidAsRunContinues(t *testing.T) {
	cfg := tinyConfig(3)
	cfg.Workers = 1
	var first *Checkpoint
	var before []byte
	cfg.OnCheckpoint = func(cp *Checkpoint) error {
		if cp.Samples == 1 {
			first = cp
			var err error
			if before, err = json.Marshal(cp); err != nil {
				t.Fatalf("encoding checkpoint 1: %v", err)
			}
		}
		return nil
	}
	full, err := Run(cfg, NewSpotlight())
	if err != nil {
		t.Fatalf("full run failed: %v", err)
	}
	if first.Best == nil || len(first.Best.Layers) == 0 || len(first.Frontier) == 0 || len(first.Top) == 0 {
		t.Fatalf("checkpoint 1 holds no design to share: %+v", first)
	}
	same := func(when string) {
		t.Helper()
		after, err := json.Marshal(first)
		if err != nil {
			t.Fatalf("re-encoding checkpoint 1 %s: %v", when, err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("checkpoint 1 changed %s:\nbefore %s\nafter  %s", when, before, after)
		}
	}
	same("after the run finished")
	for i := 0; i < 2; i++ {
		rcfg := tinyConfig(3)
		rcfg.Resume = first
		res, err := Run(rcfg, NewSpotlight())
		if err != nil {
			t.Fatalf("resume %d failed: %v", i+1, err)
		}
		expectSameOutcome(t, "resumed", full, res)
		same("after a resumed run")
	}
}

// TestCheckpointNonFiniteHistorySurvivesJSON exercises the jsonFloat
// encoding: a checkpoint whose history contains +Inf (an all-invalid
// sample) must encode and decode without error or loss.
func TestCheckpointNonFiniteHistorySurvivesJSON(t *testing.T) {
	cp := &Checkpoint{
		Version: checkpointVersion,
		Samples: 1,
		Observations: []Observation{
			{Valid: false},
		},
		History: []cpHistoryPoint{{
			Sample:    1,
			Value:     jsonFloat(math.Inf(1)),
			BestSoFar: jsonFloat(math.Inf(1)),
		}},
	}
	rt := writeReadCheckpoint(t, cp)
	if !math.IsInf(float64(rt.History[0].Value), 1) || !math.IsInf(float64(rt.History[0].BestSoFar), 1) {
		t.Fatalf("+Inf history did not round-trip: %+v", rt.History[0])
	}
}

// TestCheckpointRejectsMismatchedRun guards against resuming a
// checkpoint into the wrong search: a different seed or a different
// strategy changes the fingerprint, while the worker count — which is
// guaranteed not to affect results — does not.
func TestCheckpointRejectsMismatchedRun(t *testing.T) {
	cfg := tinyConfig(3)
	_, cps := runCapturing(t, cfg, NewSpotlight())

	other := tinyConfig(4) // different seed
	other.Resume = cps[2]
	if _, err := Run(other, NewSpotlight()); err == nil {
		t.Error("resume with a different seed did not fail")
	}
	same := tinyConfig(3)
	same.Resume = cps[2]
	if _, err := Run(same, NewSpotlightF()); err == nil {
		t.Error("resume with a different strategy did not fail")
	}
	tooSmall := tinyConfig(3)
	tooSmall.HWSamples = 2 // checkpoint already covers 3 samples
	tooSmall.Resume = cps[2]
	if _, err := Run(tooSmall, NewSpotlight()); err == nil {
		t.Error("resume past the configured budget did not fail")
	}
}

// TestCancelReturnsPartialHistory cancels mid-run and checks that the
// partial Result is an exact prefix of the uninterrupted run, with the
// context error surfaced through errors.Is.
func TestCancelReturnsPartialHistory(t *testing.T) {
	full, _ := runCapturing(t, tinyConfig(5), NewSpotlight())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := tinyConfig(5)
	cfg.OnCheckpoint = func(cp *Checkpoint) error {
		if cp.Samples == 3 {
			cancel()
		}
		return nil
	}
	res, err := RunContext(ctx, cfg, NewSpotlight())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.History) != 3 {
		t.Fatalf("partial history has %d samples, want 3", len(res.History))
	}
	if !reflect.DeepEqual(stripElapsed(res.History), stripElapsed(full.History[:3])) {
		t.Errorf("partial history is not a prefix of the full run's:\nwant %+v\ngot  %+v",
			full.History[:3], res.History)
	}
	for _, d := range res.Top {
		if math.IsNaN(d.Objective) || math.IsInf(d.Objective, 0) {
			t.Errorf("non-finite objective %v among top designs of a canceled run", d.Objective)
		}
	}
}

// TestCancelBeforeFirstSample checks the degenerate case: a context
// canceled up front returns an empty, well-formed Result.
func TestCancelBeforeFirstSample(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, tinyConfig(1), NewSpotlight())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.History) != 0 || len(res.Frontier) != 0 || len(res.Top) != 0 {
		t.Fatalf("canceled-at-start run produced non-empty result: %d/%d/%d",
			len(res.History), len(res.Frontier), len(res.Top))
	}
}

// TestCheckpointHookErrorAborts: a failing OnCheckpoint (e.g. disk full)
// aborts the run with the hook's error and the partial result, rather
// than searching on with persistence silently broken.
func TestCheckpointHookErrorAborts(t *testing.T) {
	hookErr := errors.New("disk full")
	cfg := tinyConfig(5)
	cfg.OnCheckpoint = func(cp *Checkpoint) error {
		if cp.Samples == 2 {
			return hookErr
		}
		return nil
	}
	res, err := Run(cfg, NewSpotlight())
	if !errors.Is(err, hookErr) {
		t.Fatalf("err = %v, want the hook's error", err)
	}
	if len(res.History) != 2 {
		t.Fatalf("aborted run kept %d samples, want 2", len(res.History))
	}
}

// TestCheckpointResumeElapsedMonotone: satellite 1 — a resumed run's
// history carries absolute elapsed offsets, so BestSoFar and Elapsed
// both stay monotone across the checkpoint seam.
func TestCheckpointResumeElapsedMonotone(t *testing.T) {
	cfg := tinyConfig(3)
	_, cps := runCapturing(t, cfg, NewSpotlight())
	cp := cps[4]
	if cp.Elapsed <= 0 {
		t.Fatalf("checkpoint at sample 5 has non-positive elapsed %v", cp.Elapsed)
	}
	rcfg := tinyConfig(3)
	rcfg.Resume = cp
	res, err := Run(rcfg, NewSpotlight())
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	var prevE time.Duration
	prevB := math.Inf(1)
	for i, h := range res.History {
		if h.Elapsed < prevE {
			t.Errorf("Elapsed regressed at history[%d]: %v after %v", i, h.Elapsed, prevE)
		}
		if h.BestSoFar > prevB {
			t.Errorf("BestSoFar rose at history[%d]: %v after %v", i, h.BestSoFar, prevB)
		}
		prevE, prevB = h.Elapsed, h.BestSoFar
	}
	if seam := res.History[5].Elapsed; seam < cp.Elapsed {
		t.Errorf("first resumed sample's Elapsed %v is below the checkpoint's %v", seam, cp.Elapsed)
	}
}
