// Multi-model co-design: the ASIC scenarios of §VII-B. One accelerator
// is co-designed with several DL models simultaneously, then each model's
// software schedule is re-optimized independently on the fixed silicon.
// The generalization scenario holds two models out of the design set and
// checks how well the accelerator serves them.
//
//	go run ./examples/multi-model
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
	design := mustModels("VGG16", "ResNet-50", "MobileNetV2")
	heldOut := mustModels("MnasNet", "Transformer")

	cfg := core.RunConfig{
		Models:    design,
		Space:     hw.EdgeSpace(),
		Budget:    hw.EdgeBudget(),
		Objective: core.MinEDP,
		HWSamples: 20, // multi-model runs evaluate every layer of every model
		SWSamples: 25,
		Seed:      3,
		Eval:      maestro.New(),
	}

	fmt.Println("co-designing one ASIC with VGG16 + ResNet-50 + MobileNetV2...")
	res, err := core.Run(cfg, core.NewSpotlight())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accelerator: %s\n\n", res.Best.Accel)

	fmt.Println("design-time models (schedules re-optimized on the fixed silicon):")
	for _, m := range design {
		report(cfg, res.Best.Accel, m)
	}

	fmt.Println("\nheld-out models (the generalization test):")
	for _, m := range heldOut {
		report(cfg, res.Best.Accel, m)
	}
}

func report(cfg core.RunConfig, accel hw.Accel, m workload.Model) {
	runCfg := cfg
	runCfg.Models = []workload.Model{m}
	d, err := core.OptimizeSoftware(context.Background(), runCfg, core.NewSpotlight(), accel)
	if err != nil {
		log.Fatalf("%s: %v", m.Name, err)
	}
	fmt.Printf("  %-12s EDP = %.4g nJ·cycles\n", m.Name, d.Objective)
}

func mustModels(names ...string) []workload.Model {
	out := make([]workload.Model, 0, len(names))
	for _, n := range names {
		m, err := workload.ByName(n)
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}
