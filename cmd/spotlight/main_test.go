package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/maestro"
	"spotlight/internal/workload"
)

// TestReevaluateReproducesMultiModelEDP re-costs an exported two-model
// EDP design on the backend that found it: the aggregate must equal the
// design's own objective, which sums each model's energy × delay rather
// than multiplying the design's total energy by its total delay.
func TestReevaluateReproducesMultiModelEDP(t *testing.T) {
	models := []workload.Model{workload.ResNet50(), workload.MobileNetV2()}
	cfg := core.RunConfig{
		Models: models, Objective: core.MinEDP,
		HWSamples: 3, SWSamples: 6, Seed: 1, Eval: maestro.New(),
	}
	res, err := core.Run(cfg, core.NewSpotlight())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.json")
	var js bytes.Buffer
	if err := core.WriteJSON(&js, core.Export(res.Tool, cfg.Objective, res.Best)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, js.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// reevaluateDesign prints its report; catch it in a file.
	report, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = report
	err = reevaluateDesign(path, maestro.New(), cfg.Objective, models)
	os.Stdout = stdout
	if cerr := report.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(report.Name())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("aggregate EDP = %.6g (was %.6g on Spotlight)\n", res.Best.Objective, res.Best.Objective)
	if !strings.HasSuffix(string(out), want) {
		t.Fatalf("report:\n%s\nwant it to end %q", out, want)
	}
}
