package engine

import (
	"bytes"
	"context"
	"testing"

	"spotlight/internal/eval"
	"spotlight/internal/exp"
)

// tinySpec is a fast experiment spec for structural tests.
func tinySpec() JobSpec {
	return JobSpec{
		Kind:      KindExperiment,
		Steps:     []string{"fig6"},
		Models:    []string{"Transformer"},
		HWSamples: 2,
		SWSamples: 4,
		Trials:    1,
		Eval:      "maestro,cache",
	}
}

// kernelsSpec is the cheapest experiment spec (a few milliseconds):
// use it in tests that only exercise job-lifecycle structure, not
// artifact content.
func kernelsSpec() JobSpec {
	s := tinySpec()
	s.Steps = []string{"kernels"}
	return s
}

func testPipeline(t *testing.T, spec string) *eval.Pipeline {
	t.Helper()
	p, err := eval.FromSpec(spec, eval.SpecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("closing pipeline: %v", err)
		}
	})
	return p
}

// TestRunExperimentsFig6MatchesDirectHarness is the relocation proof at
// unit scope: the engine's fig6 artifact must be byte-identical to
// calling the exp harness directly with the same configuration — the
// engine is the CLI orchestration moved, not reimplemented.
// (TestEndToEndInvariants in the root package proves the same end to
// end over HTTP.)
func TestRunExperimentsFig6MatchesDirectHarness(t *testing.T) {
	spec := tinySpec()
	results, err := RunExperiments(context.Background(), spec, ExperimentOptions{
		Eval: testPipeline(t, spec.Eval),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Key != "fig6" {
		t.Fatalf("results = %+v, want one fig6 step", results)
	}
	arts := results[0].Artifacts
	if len(arts) != 1 || arts[0].Name != "fig6.csv" {
		t.Fatalf("artifacts = %v, want [fig6.csv]", arts)
	}

	// The direct path: same spec translated the same way, fresh pipeline
	// so nothing is shared with the engine run.
	cfg, err := spec.Normalized().ExpConfig(testPipeline(t, spec.Eval), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exp.Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := exp.WriteRows(&want, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arts[0].Data, want.Bytes()) {
		t.Fatalf("engine fig6.csv differs from direct harness output:\nengine:\n%s\ndirect:\n%s",
			arts[0].Data, want.Bytes())
	}
}

// TestRunExperimentsCanonicalOrderAndCancellation: steps run in
// canonical order regardless of request order, and a canceled context
// stops the run at the next step boundary with the completed results
// intact.
func TestRunExperimentsCanonicalOrder(t *testing.T) {
	spec := tinySpec()
	spec.Steps = []string{"kernels", "fig6"} // reversed on purpose
	var order []string
	_, err := RunExperiments(context.Background(), spec, ExperimentOptions{
		Eval:        testPipeline(t, spec.Eval),
		OnStepStart: func(key string) { order = append(order, key) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fig6" || order[1] != "kernels" {
		t.Fatalf("steps ran as %v, want [fig6 kernels]", order)
	}
}

func TestRunExperimentsStopsOnCanceledContext(t *testing.T) {
	spec := tinySpec()
	spec.Steps = []string{"kernels", "fig6"}
	ctx, cancel := context.WithCancel(context.Background())
	var done []string
	results, err := RunExperiments(ctx, spec, ExperimentOptions{
		Eval: testPipeline(t, spec.Eval),
		OnStepDone: func(res StepResult) error {
			done = append(done, res.Key)
			cancel() // cancel after the first step completes
			return nil
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(done) != 1 || done[0] != "fig6" {
		t.Fatalf("completed steps %v, want [fig6]", done)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want the 1 completed before cancellation", len(results))
	}
}
