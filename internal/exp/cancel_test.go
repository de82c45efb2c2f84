package exp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"spotlight/internal/obs"
)

// TestDriversStopOnCanceledContext: every driver run under an
// already-canceled context returns an error wrapping context.Canceled.
func TestDriversStopOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := tinyCfg()
	drivers := []struct {
		name string
		run  func() error
	}{
		{"Fig6", func() error { _, err := Fig6(ctx, cfg); return err }},
		{"Fig7", func() error { _, err := Fig7(ctx, cfg); return err }},
		{"Fig8", func() error { _, err := Fig8(ctx, cfg); return err }},
		{"Fig9", func() error { _, err := Fig9(ctx, cfg); return err }},
		{"Fig10", func() error { _, err := Fig10(ctx, cfg); return err }},
		{"SurrogateAccuracy", func() error { _, err := SurrogateAccuracy(ctx, cfg, 200); return err }},
		{"Discussion", func() error { _, err := Discussion(ctx, cfg, "Transformer"); return err }},
		{"CrossModelAgreement", func() error { _, err := CrossModelAgreement(ctx, cfg, "Transformer", 40); return err }},
		{"TopDesignCrossCheck", func() error { _, err := TopDesignCrossCheck(ctx, cfg, "Transformer"); return err }},
		{"SimCheck", func() error { _, err := SimCheck(ctx, cfg, 20); return err }},
		{"KernelSearchComparison", func() error { _, err := KernelSearchComparison(ctx, cfg, "Transformer"); return err }},
	}
	for _, d := range drivers {
		if err := d.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a canceled context: err = %v, want one wrapping context.Canceled", d.name, err)
		}
	}
}

// cancelAfterFirstRun cancels its context when the first co-design run
// ends, and counts the runs that start.
type cancelAfterFirstRun struct {
	cancel context.CancelFunc
	starts atomic.Int64
}

func (c *cancelAfterFirstRun) Emit(e obs.Event) {
	switch e.Type {
	case obs.RunStart:
		c.starts.Add(1)
	case obs.RunEnd:
		c.cancel()
	}
}

func (c *cancelAfterFirstRun) Enabled() bool { return true }

// TestFig6CanceledAfterFirstTrialReturnsNoRows: a context canceled
// once Spotlight's first trial has completed fails the figure. Fig6
// must not summarize the one trial that finished into a row.
func TestFig6CanceledAfterFirstTrialReturnsNoRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelAfterFirstRun{cancel: cancel}
	cfg := tinyCfg() // 2 trials, run one after the other
	cfg.Tracer = tr
	rows, err := Fig6(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig6 canceled after its first trial: err = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Fatalf("Fig6 canceled after its first trial returned rows %+v", rows)
	}
	if n := tr.starts.Load(); n != 1 {
		t.Fatalf("%d runs started, want 1: the cancel must land between trials", n)
	}
}
