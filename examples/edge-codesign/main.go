// Edge co-design: the paper's headline scenario (§VII-A). Co-design an
// edge-scale accelerator with ResNet-50 and compare the result against
// the three hand-designed baselines, each scheduled by the same
// layerwise software optimizer under its own dataflow constraint.
//
//	go run ./examples/edge-codesign
package main

import (
	"context"
	"fmt"
	"log"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/workload"
)

func main() {
	model, err := workload.ByName("ResNet-50")
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.RunConfig{
		Models:    []workload.Model{model},
		Space:     hw.EdgeSpace(),
		Budget:    hw.EdgeBudget(),
		Objective: core.MinDelay,
		HWSamples: 40, // the paper uses 100; 40 keeps this example quick
		SWSamples: 40,
		Seed:      7,
		Eval:      maestro.New(),
	}

	fmt.Println("co-designing an edge accelerator for ResNet-50...")
	res, err := core.Run(cfg, core.NewSpotlight())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Spotlight:     delay = %.4g cycles   (%s)\n",
		res.Best.Objective, res.Best.Accel)

	for _, b := range hw.EdgeBaselines() {
		bcfg := cfg
		bcfg.SWConstraint = b.Constraint
		design, err := core.OptimizeSoftware(context.Background(), bcfg, core.NewSpotlight(), b.Accel)
		if err != nil {
			log.Fatalf("%s: %v", b.Name, err)
		}
		fmt.Printf("%-14s delay = %.4g cycles   (%.2fx Spotlight)\n",
			b.Name+":", design.Objective, design.Objective/res.Best.Objective)
	}

	fmt.Println("\nper-layer snapshot of the Spotlight design (first 5 layers):")
	for i, lr := range res.Best.Layers {
		if i == 5 {
			break
		}
		fmt.Printf("  %-12s delay=%.4g  util=%.0f%%  unroll=%v/%v\n",
			lr.Layer.Name, lr.Cost.DelayCycles, 100*lr.Cost.Utilization,
			lr.Schedule.OuterUnroll, lr.Schedule.InnerUnroll)
	}
}
