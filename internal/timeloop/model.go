// Package timeloop implements a second analytical model in the role
// Timeloop (Parashar et al., ISPASS 2019) plays in §VII-F of the paper: a
// differently-built estimator of the same designs, used to check that
// Spotlight's results do not overfit the primary model.
//
// It reads the same loop-nest geometry as internal/maestro (internal/sched's
// tile bytes, dependence sets, distinct tiles and array fold) and differs
// only in what it charges for it, the way Timeloop differs from MAESTRO:
//
//   - Delay is additive (compute + memory + network serialized with a
//     fixed overlap factor) instead of roofline max.
//   - Buffer reuse is loop-order-oblivious: each tensor is fetched once
//     per distinct tile per level (perfect intra-level reuse), so traffic
//     is an optimistic bound rather than an order-sensitive estimate.
//   - Buffers are double-buffered, halving usable capacity, so the
//     validity region differs.
//   - The interconnect is one shared bus rather than per-row buses.
//   - The energy table uses different constants and linear (not sqrt)
//     scratchpad scaling, and models no leakage.
//
// Because of these differences, rankings agree only partially with the
// primary model — reproducing the paper's observation that roughly a
// third of the top/bottom samples match across models.
package timeloop

import (
	"fmt"
	"math"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Energy constants (pJ per byte / per MAC), intentionally different from
// the primary model's table.
const (
	eDRAMPerByte = 160.0
	eL2PerKBByte = 0.04 // linear in scratchpad size: eL2 = size_KB * this
	eL2Floor     = 2.0
	eRFPerByte   = 0.8
	eMACPerOp    = 0.25
	eNoCPerByte  = 0.5
	overlap      = 0.35 // fraction of memory time hidden under compute
)

// Model is the Timeloop-like evaluator.
type Model struct{}

// New returns the evaluator.
func New() *Model { return &Model{} }

// Name identifies the model in cross-validation reports.
func (*Model) Name() string { return "timeloop" }

// timeloopVersion is bumped on any change to this model's cost math,
// invalidating persistent cache entries it produced.
const timeloopVersion = "cost-v1"

// ModelFingerprint identifies this backend's cost model for persistent
// caching (see eval.BackendFingerprint).
func (*Model) ModelFingerprint() string { return "timeloop/" + timeloopVersion }

// Evaluate estimates the cost of the design. It shares the Cost type with
// the primary model so results are directly comparable, and wraps
// maestro.ErrInvalid for out-of-capacity schedules (with double-buffering
// the feasible region is smaller than the primary model's).
func (m *Model) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	if err := a.Validate(); err != nil {
		return maestro.Cost{}, fmt.Errorf("%w: %v", maestro.ErrInvalid, err)
	}
	if err := l.Validate(); err != nil {
		return maestro.Cost{}, fmt.Errorf("%w: %v", maestro.ErrInvalid, err)
	}
	if err := s.Validate(l); err != nil {
		return maestro.Cost{}, fmt.Errorf("%w: %v", maestro.ErrInvalid, err)
	}

	n2 := s.OuterTrips(l)
	n1 := s.InnerTrips(l)

	// Double-buffered capacities.
	b1, b2 := sched.TileBytes(&l, &s.T1), sched.TileBytes(&l, &s.T2)
	if need := 2 * b1.Total(); need > a.RFBytesPerPE() {
		return maestro.Cost{}, fmt.Errorf("%w: double-buffered RF tile needs %d B, have %d B",
			maestro.ErrInvalid, need, a.RFBytesPerPE())
	}
	if need := 2 * b2.Total(); need > a.L2Bytes() {
		return maestro.Cost{}, fmt.Errorf("%w: double-buffered L2 tile needs %d B, have %d B",
			maestro.ErrInvalid, need, a.L2Bytes())
	}

	// Iteration structure: the primary model's (sched.ArrayFold).
	var fold sched.ArrayFold
	fold.Fold(s.OuterUnroll, s.InnerUnroll, &n1, a.Height(), a.Width)
	innerTemporal := n1
	fold.Temporal(&innerTemporal)
	outerIters := prod(n2)
	innerIters := prod(innerTemporal)

	macsPerT1 := 1.0
	for i := range workload.AllDims {
		macsPerT1 *= float64(s.T1[i])
	}
	computeCycles := outerIters * innerIters * math.Ceil(macsPerT1/float64(a.SIMDLanes))

	// Loop-order-oblivious traffic: one fetch per distinct tile per level,
	// re-fetched once per enclosing level iteration. Every tile has passed
	// a capacity check, so its byte count converts to float64 exactly.
	in, wt, out := sched.TensorInput, sched.TensorWeight, sched.TensorOutput
	dramBytes := float64(in.DistinctTiles(n2))*float64(b2[in]) +
		float64(wt.DistinctTiles(n2))*float64(b2[wt]) +
		2*float64(out.DistinctTiles(n2))*float64(b2[out])
	lanes := fold.Lanes()
	perOuter := float64(in.DistinctTiles(n1))*float64(b1[in])*float64(lanes.Copies(in)) +
		float64(wt.DistinctTiles(n1))*float64(b1[wt])*float64(lanes.Copies(wt)) +
		2*float64(out.DistinctTiles(n1))*float64(b1[out])*float64(lanes.Copies(out))
	nocBytes := outerIters * perOuter

	dramBW := math.Max(16, float64(a.NoCBW)/2)
	dramCycles := dramBytes / dramBW
	// Unlike the primary model, the interconnect is modeled as one shared
	// bus rather than per-row dedicated buses.
	nocCycles := nocBytes / float64(a.NoCBW)
	delay := computeCycles + (1-overlap)*(dramCycles+nocCycles)

	macs := float64(l.MACs())
	eL2 := math.Max(eL2Floor, float64(a.L2KB)*eL2PerKBByte)
	energyPJ := macs*eMACPerOp +
		dramBytes*eDRAMPerByte +
		(dramBytes+nocBytes)*eL2 +
		nocBytes*eNoCPerByte +
		macs*4*eRFPerByte

	cost := maestro.Cost{
		DelayCycles:   delay,
		EnergyNJ:      energyPJ / 1000,
		AreaMM2:       a.AreaMM2(),
		ComputeCycles: computeCycles,
		DRAMCycles:    dramCycles,
		NoCCycles:     nocCycles,
		DRAMBytes:     dramBytes,
		NoCBytes:      nocBytes,
		L2Bytes:       dramBytes + nocBytes,
		RFBytes:       macs * 4,
		Utilization:   fold.Utilization() * computeCycles / delay,
	}
	cost.PowerMW = cost.EnergyNJ * 1000 / delay
	return cost, nil
}

func prod(a [workload.NumDims]int) float64 {
	f := 1.0
	for _, x := range a {
		f *= float64(x)
	}
	return f
}
