// Package core implements the paper's primary contribution: daBO, the
// domain-aware Bayesian optimization framework (§V), the feature space
// that injects hardware/software co-design knowledge into the search
// (§IV-B, Figure 4), and Spotlight, the layerwise nested HW/SW co-design
// tool built on daBO (§VI).
package core

import (
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Point is one co-design point: an accelerator, a software schedule, and
// the layer the schedule runs. Features (Figure 4) are arbitrary
// transformations of a Point into ℝ.
type Point struct {
	Accel hw.Accel
	Sched sched.Schedule
	Layer workload.Layer
}

// pointTerms are the quantities several features derive from a point:
// the layer's extents, the schedule's DRAM-level (outer) and L2-level
// (inner) trip counts, the accelerator's array height, and how the
// unrolled L2-level loops fold over the array. TransformTo derives
// them; a scored Suggest reads the trip counts its sampler drew.
type pointTerms struct {
	sizes, outer, inner [workload.NumDims]int
	height              int
	fold                sched.ArrayFold
}

// derive fills t from the point's accelerator, schedule and layer. It
// reads the extents through the layer (in workload.AllDims order, as
// Layer.Sizes returns them) rather than copying it by value.
func (t *pointTerms) derive(p *Point) {
	s, l := &p.Sched, &p.Layer
	t.sizes = [workload.NumDims]int{l.N, l.K, l.C, l.R, l.S, l.OutX(), l.OutY()}
	for i := range t.sizes {
		t.outer[i] = t.sizes[i] / s.T2[i]
		t.inner[i] = s.T2[i] / s.T1[i]
	}
	t.height = p.Accel.Height()
	t.foldOver(s, p.Accel.Width)
}

// foldOver folds s's unrolled L2-level loops, whose trip counts are in
// t.inner, over an array t.height rows high and width columns wide.
func (t *pointTerms) foldOver(s *sched.Schedule, width int) {
	t.fold.Fold(s.OuterUnroll, s.InnerUnroll, &t.inner, t.height, width)
}

// Evaluator abstracts the analytical cost model backend so Spotlight can
// run against the primary MAESTRO-like model, the Timeloop-like model of
// §VII-F, or a test double.
type Evaluator interface {
	// Evaluate returns the cost of the design, or an error wrapping
	// maestro.ErrInvalid for points outside the feasible region.
	Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error)
	// Name identifies the backend in reports.
	Name() string
}

// Objective selects the single-objective metric Spotlight minimizes
// (§VI-B).
type Objective int

// The two objectives the paper evaluates.
const (
	MinEDP Objective = iota
	MinDelay
)

// String returns the metric's display name.
func (o Objective) String() string {
	if o == MinDelay {
		return "delay"
	}
	return "EDP"
}

// LayerCost reduces a per-layer cost to the objective's scalar for that
// layer. Model-level aggregation happens in AggregateObjective, because
// EDP does not sum across layers (energy and delay sum separately).
func (o Objective) LayerCost(c maestro.Cost) float64 {
	if o == MinDelay {
		return c.DelayCycles
	}
	return c.EDP()
}

// AggregateObjective combines per-layer costs (already weighted by layer
// repeat counts) into the model-level objective: total delay for
// MinDelay, total-energy × total-delay for MinEDP.
func AggregateObjective(o Objective, totalEnergyNJ, totalDelayCycles float64) float64 {
	if o == MinDelay {
		return totalDelayCycles
	}
	return totalEnergyNJ * totalDelayCycles
}
