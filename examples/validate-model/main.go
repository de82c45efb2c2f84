// Validate-model: cross-check the analytical cost model against the
// trace-driven scratchpad simulator — the methodology MAESTRO justified
// with RTL validation, applied to this reproduction's own substrate. The
// example also quantifies how much DRAM traffic a multi-tile LRU
// scratchpad would save over the analytical single-working-set
// assumption, the paper's "more accurate evaluation backend" direction.
//
//	go run ./examples/validate-model
package main

import (
	"fmt"
	"log"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/sim"
	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

func main() {
	layer := workload.Conv("probe", 1, 64, 32, 3, 3, 34, 34) // ~120 KB working set: larger than most L2 samples
	model := maestro.New()
	space := hw.EdgeSpace()
	free := sched.Free()
	rng := xrand.New(1)

	fmt.Println("schedule-by-schedule validation (analytical vs simulated DRAM bytes):")
	matches, checked := 0, 0
	var totalSaving float64
	for checked < 10 {
		a := space.Random(rng)
		s := free.Random(rng, layer, a.RFBytesPerPE(), a.L2Bytes())
		cost, err := model.Evaluate(a, s, layer)
		if err != nil {
			continue
		}
		single, err := sim.Simulate(a, s, layer, sim.Options{SingleWorkingSet: true})
		if err != nil {
			continue
		}
		full, err := sim.Simulate(a, s, layer, sim.Options{})
		if err != nil {
			continue
		}
		checked++
		match := single.DRAMBytes() == cost.DRAMBytes //lint:allow floateq(demonstrates bit-exact analytical-vs-simulated agreement; exactness is the point)
		if match {
			matches++
		}
		saving := 1 - full.DRAMBytes()/single.DRAMBytes()
		totalSaving += saving
		fmt.Printf("  analytical=%8.0f B  simulated=%8.0f B  match=%-5v  LRU cache saves %4.1f%%\n",
			cost.DRAMBytes, single.DRAMBytes(), match, 100*saving)
	}
	fmt.Printf("\n%d/%d schedules match the analytical model exactly\n", matches, checked)
	fmt.Printf("multi-tile caching would remove %.1f%% of DRAM traffic on average\n",
		100*totalSaving/float64(checked))
	if matches != checked {
		log.Fatal("validation failed: the analytical model disagrees with the simulator")
	}
}
