// Package maestro implements the primary analytical cost model that
// Spotlight uses to evaluate candidate designs, playing the role MAESTRO
// (Kwon et al., IEEE Micro 2020) plays in the paper. Given an accelerator
// configuration, a software schedule, and a CONV layer, it reports delay,
// energy, EDP, area, power, utilization, and data-movement statistics.
//
// The model is a data-centric loop-nest analysis of the two-level
// accelerator of Figure 2:
//
//   - The DRAM-level loops step L2 tiles (T2) in the schedule's outer
//     order; the loop over the outer-unrolled dimension is distributed
//     across the rows of the PE array.
//   - The L2-level loops step RF tiles (T1) in the inner order; the loop
//     over the inner-unrolled dimension is distributed across the columns
//     of each row, fed by the row's dedicated uni-/multi-cast bus.
//   - Tensors are refetched according to the classic stationarity rule:
//     a tile stays resident while only loops the tensor does not depend
//     on iterate below its innermost dependent loop.
//
// The geometry (tile bytes, dependence sets, distinct tiles and the array
// fold) is internal/sched's, shared with the other evaluators; this
// package adds the stationarity rule, the roofline delay and the energy
// table.
//
// Schedules whose tiles overflow the register file or scratchpad are
// invalid — these are the "large and unpredictable invalid regions" of
// the co-design space that §IV of the paper highlights; Evaluate returns
// an error for them rather than a cost.
package maestro

import (
	"errors"
	"fmt"
	"math"

	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Cost is the evaluation of one (accelerator, schedule, layer) triple.
// Cycle counts assume a 1 GHz clock, so pJ/cycle equals mW.
type Cost struct {
	DelayCycles float64 // end-to-end layer delay
	EnergyNJ    float64 // total energy, nJ
	AreaMM2     float64
	PowerMW     float64 // average power while running
	Utilization float64 // time-averaged fraction of PEs doing useful work

	ComputeCycles float64 // cycles if never stalled
	DRAMCycles    float64 // cycles implied by DRAM traffic alone
	NoCCycles     float64 // cycles implied by on-chip traffic alone

	DRAMBytes float64 // total off-chip traffic
	NoCBytes  float64 // total L2→RF traffic across all rows
	L2Bytes   float64 // total scratchpad accesses
	RFBytes   float64 // total register-file accesses

	// Per-tensor DRAM traffic breakdown (sums to DRAMBytes).
	DRAMInputBytes  float64
	DRAMWeightBytes float64
	DRAMOutputBytes float64

	// Reads-per-fill reuse metrics for the §VII-C discussion: how many
	// times each byte delivered into a level is consumed before being
	// replaced.
	RFInputReuse float64
	L2InputReuse float64
}

// EDP returns the energy-delay product in nJ·cycles, the paper's primary
// comparison metric.
func (c Cost) EDP() float64 { return c.EnergyNJ * c.DelayCycles }

// Finite reports whether every field of the cost is a finite number. A
// cost model that hangs or crashes is easy to notice; one that returns
// NaN or ±Inf silently corrupts downstream statistics, so the search
// runtime classifies non-finite costs as invalid samples.
func (c Cost) Finite() bool {
	for _, v := range [...]float64{
		c.DelayCycles, c.EnergyNJ, c.AreaMM2, c.PowerMW, c.Utilization,
		c.ComputeCycles, c.DRAMCycles, c.NoCCycles,
		c.DRAMBytes, c.NoCBytes, c.L2Bytes, c.RFBytes,
		c.DRAMInputBytes, c.DRAMWeightBytes, c.DRAMOutputBytes,
		c.RFInputReuse, c.L2InputReuse,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ErrInvalid is wrapped by all validity errors returned from Evaluate, so
// searchers can distinguish "this design point is outside the feasible
// region" from programming errors.
var ErrInvalid = errors.New("maestro: invalid configuration")

// EDRAMPerByte is the off-chip access energy coefficient (pJ per byte at
// 8-bit precision, 1 GHz). It is exported because the hybrid trace-driven
// backend (internal/sim) re-derives energy from simulated DRAM traffic
// and must price that traffic identically to the analytical model.
const EDRAMPerByte = 200.0

// Energy and bandwidth coefficients (pJ per byte / per MAC at 8-bit
// precision, 1 GHz). Relative magnitudes follow the usual storage
// hierarchy: DRAM ≫ scratchpad ≫ register file ≈ MAC.
const (
	eL2BasePJ     = 6.0 // at the 128 KB reference size, scaled by sqrt
	eRFPerByte    = 1.0
	eMACPerOp     = 0.2
	eNoCBase      = 0.2  // per byte entering a row bus
	eNoCPerColumn = 0.02 // wire length term
	leakPerMM2    = 0.05 // pJ per cycle per mm²
	rampCycles    = 1.0  // pipeline fill per array diagonal step
)

// Model is the MAESTRO-like evaluator. The zero value is not usable; use
// New. DRAM bandwidth scales with the on-chip interconnect width, so
// cloud-scale parts see proportionally faster memory systems.
type Model struct{}

// New returns the evaluator.
func New() *Model { return &Model{} }

// Name identifies the model in cross-validation reports (§VII-F).
func (*Model) Name() string { return "maestro" }

// CostModelVersion is bumped on ANY change to the analytical cost
// math or to the Cost struct layout: it feeds the persistent eval
// cache's record keys, so bumping it cleanly invalidates every on-disk
// result the old model produced.
const CostModelVersion = "cost-v1"

// ModelFingerprint identifies this backend's cost model for persistent
// caching (see eval.BackendFingerprint).
func (*Model) ModelFingerprint() string { return "maestro/" + CostModelVersion }

// Evaluate runs the analytical model on one schedule, with EvaluateTo's
// checks in EvaluateTo's order.
func (*Model) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (Cost, error) {
	if err := validatePair(&a, &l); err != nil {
		return Cost{}, err
	}
	ctx := newLayerCtx(&a, &l)
	return ctx.evaluate(&s, &l)
}

// validatePair checks the accelerator, then the layer, returning the
// error every schedule of the pair shares.
func validatePair(a *hw.Accel, l *workload.Layer) error {
	err := a.Validate()
	if err == nil {
		err = l.Validate()
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return nil
}

// EvaluateTo evaluates the schedules ss against one (accelerator, layer)
// pair, writing costs[i] and errs[i] for ss[i]; both slices must be at
// least len(ss) long. An invalid point gets a zero cost and an error
// wrapping ErrInvalid. The checks run in a fixed order: accelerator and
// layer (once per call, one error shared by every item), then per
// schedule its structure, the RF tile against the per-PE register file,
// and the L2 tile against the scratchpad (both spatial unrolls distribute
// L2-level loops, so every PE consumes from the same resident T2 tile).
// A valid item allocates nothing and an invalid one allocates only its
// error, whose message is formatted when Error is called.
func (*Model) EvaluateTo(a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []Cost, errs []error) {
	if err := validatePair(&a, &l); err != nil {
		for i := range ss {
			costs[i], errs[i] = Cost{}, err
		}
		return
	}
	ctx := newLayerCtx(&a, &l)
	for i := range ss {
		costs[i], errs[i] = ctx.evaluate(&ss[i], &l)
	}
}

// evaluate checks and costs one schedule of the context's validated
// pair: its structure, the RF tile, then the L2 tile.
func (c *layerCtx) evaluate(s *sched.Schedule, l *workload.Layer) (Cost, error) {
	n2, n1, ok := s.TripCounts(&c.sizes)
	if !ok {
		return Cost{}, &structuralError{s: *s, l: *l}
	}
	b1 := sched.TileBytes(l, &s.T1)
	if need := b1.Total(); need > c.rfCap {
		return Cost{}, &capacityError{need: need, have: c.rfCap}
	}
	b2 := sched.TileBytes(l, &s.T2)
	if need := b2.Total(); need > c.l2Cap {
		return Cost{}, &capacityError{l2: true, need: need, have: c.l2Cap}
	}
	return c.costOf(s, &n2, &n1, &b2, &b1), nil
}

// capacityError reports a tile that overflows the register file (l2
// false) or the scratchpad (l2 true). Invalid points are common during
// search (§IV of the paper) and most verdicts are never printed, so the
// message is formatted only when read.
type capacityError struct {
	l2         bool
	need, have int64 // bytes the tile needs, bytes the buffer holds
}

// Unwrap returns ErrInvalid, the only error in the chain.
func (e *capacityError) Unwrap() error { return ErrInvalid }

func (e *capacityError) Error() string {
	if e.l2 {
		return fmt.Sprintf("%v: L2 working set needs %d B, scratchpad holds %d B", ErrInvalid, e.need, e.have)
	}
	return fmt.Sprintf("%v: RF tile needs %d B, PE register file holds %d B", ErrInvalid, e.need, e.have)
}

// structuralError reports a schedule that fails sched.Schedule.Validate.
// TripCounts only says that it fails, so Error re-runs Validate for the
// reason. The samplers never draw such a schedule.
type structuralError struct {
	s sched.Schedule
	l workload.Layer
}

// Unwrap returns ErrInvalid, the only error in the chain: the
// validation error is part of the message, not of the chain.
func (e *structuralError) Unwrap() error { return ErrInvalid }

func (e *structuralError) Error() string {
	if err := e.s.Validate(e.l); err != nil {
		return fmt.Sprintf("%v: %v", ErrInvalid, err)
	}
	return ErrInvalid.Error()
}

// layerCtx caches every model input that depends only on the
// (accelerator, layer) pair, so a batch of candidate schedules for the
// same pair pays for the byte-size scalars and the two sqrt
// coefficients exactly once.
type layerCtx struct {
	h, w  int
	sizes [workload.NumDims]int // layer extents in canonical dim order

	rfCap, l2Cap int64 // per-PE RF and scratchpad capacity bounds
	simd         int64

	macs    float64 // float64(l.MACs())
	areaMM2 float64 // a.AreaMM2()
	eL2     float64 // scratchpad energy/byte at this L2 size
	eNoC    float64 // row-bus energy/byte at this array width
	dramBW  float64 // off-chip bytes/cycle
	nocBW   float64 // float64(a.NoCBW)
	ramp    float64 // pipeline-fill cycles for this array
}

func newLayerCtx(a *hw.Accel, l *workload.Layer) layerCtx {
	h, w := a.Height(), a.Width
	return layerCtx{
		h:       h,
		w:       w,
		sizes:   l.Sizes(),
		rfCap:   a.RFBytesPerPE(),
		l2Cap:   a.L2Bytes(),
		simd:    int64(a.SIMDLanes),
		macs:    float64(l.MACs()),
		areaMM2: a.AreaMM2(),
		eL2:     eL2BasePJ * math.Sqrt(float64(a.L2KB)/128),
		eNoC:    eNoCBase + eNoCPerColumn*float64(w),
		dramBW:  math.Max(16, float64(a.NoCBW)/2), // off-chip channel tracks on-chip width
		nocBW:   float64(a.NoCBW),
		ramp:    rampCycles * float64(h+w),
	}
}

// costOf evaluates one already-validated schedule against the cached
// context. n2 and n1 are its DRAM- and L2-level trip counts from
// TripCounts, b2 and b1 its L2 and RF tile bytes; it reads them in
// place. It allocates nothing.
func (c *layerCtx) costOf(s *sched.Schedule, n2, n1 *[workload.NumDims]int, b2, b1 *sched.Footprint) Cost {
	// --- Iteration structure ----------------------------------------------
	// DRAM-level loops are purely temporal; the unrolled L2-level loops
	// fold over the PE array (sched.ArrayFold).
	var fold sched.ArrayFold
	fold.Fold(s.OuterUnroll, s.InnerUnroll, n1, c.h, c.w)
	innerTemporal := *n1
	fold.Temporal(&innerTemporal)
	lanes := fold.Lanes()

	outerIters := prod(n2)
	innerIters := prod(&innerTemporal)

	macsPerT1 := int64(1)
	for i := range workload.AllDims {
		macsPerT1 *= int64(s.T1[i])
	}
	cyclesPerT1 := float64(ceilDiv64(macsPerT1, c.simd))
	computeCycles := outerIters * innerIters * cyclesPerT1

	// --- DRAM traffic -------------------------------------------------------
	// Every tile has passed a capacity check, so its byte count converts
	// to float64 exactly.
	inBytes2 := float64(b2[sched.TensorInput])
	wBytes2 := float64(b2[sched.TensorWeight])
	outBytes2 := float64(b2[sched.TensorOutput])

	fillsIn2 := fills(&s.OuterOrder, n2, sched.TensorInput)
	fillsW2 := fills(&s.OuterOrder, n2, sched.TensorWeight)
	fillsOut2 := fills(&s.OuterOrder, n2, sched.TensorOutput)
	distinctOut2 := float64(sched.TensorOutput.DistinctTiles(n2))

	dramIn := fillsIn2 * inBytes2
	dramW := fillsW2 * wBytes2
	// Outputs: every fill is eventually written back; refetches beyond the
	// first visit also read the partial sums back in.
	dramOut := fillsOut2*outBytes2 + (fillsOut2-distinctOut2)*outBytes2
	dramBytes := dramIn + dramW + dramOut

	// --- NoC (L2→RF) traffic ------------------------------------------------
	// Temporal fills follow the stationarity rule over the inner order;
	// each fill moves one T1 tile per spatially distinct copy.
	inBytes1 := float64(b1[sched.TensorInput])
	wBytes1 := float64(b1[sched.TensorWeight])
	outBytes1 := float64(b1[sched.TensorOutput])

	fillsIn1 := fills(&s.InnerOrder, &innerTemporal, sched.TensorInput)
	fillsW1 := fills(&s.InnerOrder, &innerTemporal, sched.TensorWeight)
	fillsOut1 := fills(&s.InnerOrder, &innerTemporal, sched.TensorOutput)
	distinctOut1 := float64(sched.TensorOutput.DistinctTiles(&innerTemporal))

	nocIn := fillsIn1 * inBytes1 * float64(lanes.Copies(sched.TensorInput))
	nocW := fillsW1 * wBytes1 * float64(lanes.Copies(sched.TensorWeight))
	outCopies := float64(lanes.Copies(sched.TensorOutput))
	nocOut := fillsOut1*outBytes1*outCopies + (fillsOut1-distinctOut1)*outBytes1*outCopies
	perOuterBytes := nocIn + nocW + nocOut

	nocBytes := outerIters * perOuterBytes

	// --- Stalls and delay ----------------------------------------------------
	dramCycles := dramBytes / c.dramBW
	// Each row has a dedicated bus of NoCBW bytes/cycle; traffic spreads
	// over the active rows.
	nocCycles := nocBytes / (c.nocBW * float64(lanes.Rows))
	delay := math.Max(computeCycles, math.Max(dramCycles, nocCycles)) + c.ramp

	// --- Energy ---------------------------------------------------------------
	macs := c.macs
	// Scratchpad accesses: DRAM fills write into L2 once, and every byte
	// sent down a row bus is read from L2 once (the bus itself multicasts
	// across the columns of the row).
	l2AccessBytes := dramBytes + nocBytes
	rfAccessBytes := macs * 4 // two operand reads + psum read + write per MAC

	energyPJ := macs*eMACPerOp +
		dramBytes*EDRAMPerByte +
		l2AccessBytes*c.eL2 +
		nocBytes*c.eNoC +
		rfAccessBytes*eRFPerByte +
		delay*leakPerMM2*c.areaMM2

	// --- Derived metrics -------------------------------------------------------
	util := fold.Utilization() * computeCycles / delay

	cost := Cost{
		DelayCycles:     delay,
		EnergyNJ:        energyPJ / 1000,
		AreaMM2:         c.areaMM2,
		ComputeCycles:   computeCycles,
		DRAMCycles:      dramCycles,
		NoCCycles:       nocCycles,
		DRAMBytes:       dramBytes,
		DRAMInputBytes:  dramIn,
		DRAMWeightBytes: dramW,
		DRAMOutputBytes: dramOut,
		NoCBytes:        nocBytes,
		L2Bytes:         l2AccessBytes,
		RFBytes:         rfAccessBytes,
		Utilization:     util,
	}
	cost.PowerMW = cost.EnergyNJ * 1000 / delay
	if nocInTotal := outerIters * nocIn; nocInTotal > 0 {
		cost.RFInputReuse = macs / nocInTotal
		if dramIn > 0 {
			cost.L2InputReuse = nocInTotal / dramIn
		}
	}
	return cost
}

// fills implements the stationarity rule: the number of times a tensor's
// tile must be (re)filled from the level above equals the product of the
// temporal trip counts of all loops from the outermost down to the
// tensor's innermost dependent loop. Loops below that point only iterate
// dimensions the tensor does not depend on, so the tile stays resident.
func fills(order *[workload.NumDims]workload.Dim, trips *[workload.NumDims]int, t sched.Tensor) float64 {
	innermost := -1
	for i := workload.NumDims - 1; i >= 0; i-- {
		if t.Depends(order[i]) && trips[order[i]] > 1 {
			innermost = i
			break
		}
	}
	f := 1.0
	for i := 0; i <= innermost; i++ {
		f *= float64(trips[order[i]])
	}
	return f
}

func prod(a *[workload.NumDims]int) float64 {
	f := 1.0
	for _, x := range a {
		f *= float64(x)
	}
	return f
}

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }
