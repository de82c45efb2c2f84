package hw

import (
	"fmt"

	"spotlight/internal/sched"
)

// Baseline pairs a hand-designed accelerator configuration with the
// software-schedule space its dataflow supports. Following §VII of the
// paper, baselines are evaluated "under our layerwise software optimizer
// daBO_SW" but within their own (often rigid) schedule constraints, and
// they are scaled so all accelerators fit the same area budget.
type Baseline struct {
	Name       string
	Accel      Accel
	Constraint sched.Constraint
}

// EyerissEdge returns the edge-scale Eyeriss-like baseline: a 12×14
// array of narrow PEs with a rigid row-stationary-style X/Y-unrolled
// dataflow, echoing the fabricated Eyeriss chip (168 PEs, ~108 KB on-chip
// SRAM) within the Figure 3 ranges.
func EyerissEdge() Baseline {
	return Baseline{
		Name: "Eyeriss-like",
		Accel: Accel{
			PEs: 168, Width: 14, SIMDLanes: 2,
			RFKB: 80, L2KB: 128, NoCBW: 64,
		},
		Constraint: sched.EyerissLike().WithTilingSearch(),
	}
}

// NVDLAEdge returns the edge-scale NVDLA-like baseline: a wider SIMD
// design that spatially unrolls the K and C channel dimensions, which
// the paper notes gives it an advantage over Eyeriss on mid and late
// layers.
func NVDLAEdge() Baseline {
	return Baseline{
		Name: "NVDLA-like",
		Accel: Accel{
			PEs: 256, Width: 16, SIMDLanes: 4,
			RFKB: 64, L2KB: 256, NoCBW: 128,
		},
		Constraint: sched.NVDLALike().WithTilingSearch(),
	}
}

// MAERIEdge returns the edge-scale MAERI-like baseline: fixed hardware
// (including fixed on-chip memory sizes — the degree of freedom the paper
// notes it loses to Spotlight) but a fully flexible dataflow thanks to
// its reconfigurable interconnect.
func MAERIEdge() Baseline {
	return Baseline{
		Name: "MAERI-like",
		Accel: Accel{
			PEs: 256, Width: 16, SIMDLanes: 4,
			RFKB: 128, L2KB: 192, NoCBW: 256,
		},
		Constraint: sched.MAERILike(),
	}
}

// EdgeBaselines returns the three edge-scale hand-designed baselines in
// the order Figure 6 presents them.
func EdgeBaselines() []Baseline {
	return []Baseline{EyerissEdge(), NVDLAEdge(), MAERIEdge()}
}

// scaleUp produces the cloud-scale variant of an edge baseline by the
// fixed factors the paper's "scaled-up hand-designed accelerators" use:
// 16× the PEs and on-chip SRAM, 8× the interconnect bandwidth.
func scaleUp(b Baseline, width int) Baseline {
	a := b.Accel
	a.PEs *= 16
	a.Width = width
	a.RFKB *= 16
	a.L2KB *= 16
	a.NoCBW *= 8
	return Baseline{Name: b.Name + " (cloud)", Accel: a, Constraint: b.Constraint}
}

// CloudBaselines returns the scaled-up hand-designed baselines of
// Figure 7.
func CloudBaselines() []Baseline {
	return []Baseline{
		scaleUp(EyerissEdge(), 56), // 2688 PEs as 48×56
		scaleUp(NVDLAEdge(), 64),   // 4096 PEs as 64×64
		scaleUp(MAERIEdge(), 64),   // 4096 PEs as 64×64
	}
}

// Scale is one of the paper's two design scales (§VII-A): the hardware
// space searched, the area/power envelope designs must fit, and the
// hand-designed baselines they are compared against.
type Scale struct {
	Space     Space
	Budget    Budget
	Baselines func() []Baseline
}

// ScaleByName returns the named scale, "edge" or "cloud".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "edge":
		return Scale{EdgeSpace(), EdgeBudget(), EdgeBaselines}, nil
	case "cloud":
		return Scale{CloudSpace(), CloudBudget(), CloudBaselines}, nil
	}
	return Scale{}, fmt.Errorf("hw: unknown scale %q (want edge or cloud)", name)
}
