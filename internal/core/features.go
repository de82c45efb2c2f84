package core

import (
	"math"
	"math/rand"

	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// FeatureSet is one feature space of §IV-B: the surrogate's column
// names, in order, and fill, which writes a point's whole row in one
// pass. ReadsOrder reports that a column reads the schedule's loop
// orders; a proposer whose set reads none may rank candidates drawn
// without them. Names is shared by every holder of the set: read it,
// do not modify it.
type FeatureSet struct {
	Names      []string
	ReadsOrder bool
	// terms is set when fill reads the point's derived terms, so the
	// point must carry a schedule for its layer. Hardware sets read
	// only the accelerator.
	terms bool
	fill  func(row []float64, in featureInput)
}

// featureInput is what a fill reads: the accelerator and the schedule
// through pointers, and the terms computed once from them (nil for a
// set without terms). lg goes through logs when it is set.
type featureInput struct {
	a    *hw.Accel
	s    *sched.Schedule
	t    *pointTerms
	logs *log1pMemo
}

// FeatureMode selects which feature set a daBO instance trains its
// surrogate on, implementing the paper's Spotlight / Spotlight-V /
// Spotlight-A variants (§VII-D/E).
type FeatureMode int

// Feature modes.
const (
	// FeatureSpotlight uses the hand-designed feature space of Figure 4.
	FeatureSpotlight FeatureMode = iota
	// FeatureVanilla trains directly on raw parameters — off-the-shelf
	// BO (the paper's Spotlight-V).
	FeatureVanilla
	// FeatureAll uses the union of features and raw parameters
	// (Spotlight-A).
	FeatureAll
)

// String names the mode as the paper does.
func (m FeatureMode) String() string {
	switch m {
	case FeatureVanilla:
		return "vanilla"
	case FeatureAll:
		return "all"
	}
	return "spotlight"
}

// lg compresses wide-dynamic-range feature values; the surrogate's linear
// kernel then sees approximately linear trends, per feature-selection
// guideline (3) of §IV-B2. It returns math.Log1p(v), through the memo
// when one is set.
func (in featureInput) lg(v float64) float64 { return in.logs.log1p(v) }

// log1pBits sizes the log1p memo: 2^log1pBits slots of 16 bytes, 64 KB
// per pooled batch.
const log1pBits = 12

// log1pMemo is a direct-mapped memo of math.Log1p keyed by the
// argument's float64 bits. A hit returns the float64 math.Log1p
// returned for the same bits, so it is exact; a miss overwrites its
// slot. A zero slot holds log1p(+0) = +0, so the zero memo is already
// correct and no entry ever needs invalidating. Every lg argument of
// the Figure 4 features is an integer built from a layer's tile
// tables, so a search repeats a bounded set of them, but more than
// 1024 slots hold: on a ResNet-50 co-design (perfbench
// codesign-maestro, seed 4242) 1024 slots miss 10% of 3.1 M lookups
// and 4096 slots 3.3%.
type log1pMemo [1 << log1pBits]log1pSlot

type log1pSlot struct {
	key uint64
	val float64
}

// log1p returns math.Log1p(v), from the memo unless m is nil.
func (m *log1pMemo) log1p(v float64) float64 {
	if m == nil {
		return math.Log1p(v)
	}
	k := math.Float64bits(v)
	e := &m[(k*0x9E3779B97F4A7C15)>>(64-log1pBits)]
	if e.key != k {
		return e.miss(v)
	}
	return e.val
}

// miss is log1p's miss path, kept out of line so that log1p stays
// small: its hit path is a hash, a load and a compare.
//
//go:noinline
func (e *log1pSlot) miss(v float64) float64 {
	e.key, e.val = math.Float64bits(v), math.Log1p(v)
	return e.val
}

// The feature sets. Spotlight-A's are the union of the Figure 4 set
// and the raw parameters; the raw hardware parameters are the first
// six raw software ones.
var (
	figure4SW = FeatureSet{
		Names: []string{"simd_lanes", "onchip_bandwidth", "total_pes", "pe_array_width",
			"total_onchip_sram", "kernel_parallelism", "degree_of_unrolling", "pe_utilization",
			"loop_iterations", "dram_transfers", "common_unrolled_dims"},
		terms: true,
		fill:  fillFigure4SW,
	}
	rawSW     = FeatureSet{Names: rawSWNames(), ReadsOrder: true, fill: fillRawSW}
	figure4HW = FeatureSet{
		Names: []string{"simd_lanes", "onchip_bandwidth", "total_pes", "pe_array_width",
			"pe_array_height", "total_onchip_sram", "peak_macs", "area", "peak_power"},
		fill: fillFigure4HW,
	}
	rawHW = FeatureSet{Names: rawSW.Names[:6:6], fill: fillRawHW}
	allSW = union(figure4SW, rawSW)
	allHW = union(figure4HW, rawHW)
)

// union is a's columns followed by b's: two fills side by side.
func union(a, b FeatureSet) FeatureSet {
	n := len(a.Names)
	return FeatureSet{
		Names:      append(a.Names[:n:n], b.Names...),
		ReadsOrder: a.ReadsOrder || b.ReadsOrder,
		terms:      a.terms || b.terms,
		fill: func(row []float64, in featureInput) {
			a.fill(row[:n:n], in)
			b.fill(row[n:], in)
		},
	}
}

// SoftwareFeatures returns the Figure 4 feature set used by daBO_SW. The
// first five columns are the raw cardinal parameters; the rest encode
// the domain information described in §IV-B2.
func SoftwareFeatures() FeatureSet { return figure4SW }

// fillFigure4SW writes the Figure 4 software row. Each column is one
// float64 expression over the accelerator, the schedule and the terms.
func fillFigure4SW(row []float64, in featureInput) {
	a, s, t := in.a, in.s, in.t
	_ = row[10]
	row[0] = float64(a.SIMDLanes)
	row[1] = float64(a.NoCBW)
	row[2] = float64(a.PEs)
	row[3] = float64(a.Width)
	row[4] = float64(a.RFKB + a.L2KB)
	// kernel_parallelism: R₀ × S₀, the filter extent resident at the
	// outer tile level.
	row[5] = in.lg(float64(s.T2[workload.DimR] * s.T2[workload.DimS]))
	// degree_of_unrolling: outer unrolled loop extent × inner unrolled
	// loop extent (both L2-level loops, distributed over rows and
	// columns).
	if s.OuterUnroll == s.InnerUnroll {
		row[6] = in.lg(float64(t.inner[s.OuterUnroll]))
	} else {
		row[6] = in.lg(float64(t.inner[s.OuterUnroll]) * float64(t.inner[s.InnerUnroll]))
	}
	// pe_utilization: the fraction of the array doing useful work after
	// both spatial distributions (rows take the outer-unrolled L2-level
	// loop, columns the inner one), including partial-tile (edge-case)
	// waste. It is the fold's Utilization, the value the cost models use.
	row[7] = t.fold.Utilization()
	// loop_iterations: the temporal iterations to completion after
	// spatial distribution.
	n1 := t.inner
	t.fold.Temporal(&n1)
	iters := 1.0
	for i := range workload.AllDims {
		iters *= float64(t.outer[i]) * float64(n1[i])
	}
	row[8] = in.lg(iters)
	// dram_transfers: (X₀/X₂) × (Y₀/Y₂) × (array width + array height).
	row[9] = in.lg(float64(t.outer[workload.DimX]) * float64(t.outer[workload.DimY]) *
		float64(a.Width+t.height))
	// common_unrolled_dims: a prime-basis linear combination spreading
	// the few unique values of each tile parameter apart (§IV-B2).
	row[10] = in.lg(2*float64(s.T2[workload.DimX]) +
		3*float64(s.T2[workload.DimY]) +
		5*float64(t.sizes[workload.DimK]) +
		7*float64(s.T2[workload.DimK]) +
		11*float64(s.T1[workload.DimK]))
}

// rawSWNames names the raw software parameter encoding used by
// Spotlight-V: the accelerator's parameters, the unroll dimensions as
// bare indices, and per dimension the tile sizes at both levels and
// its position in each loop order. Categorical structure is exposed to
// the surrogate without any domain interpretation — precisely the
// handicap §IV-B1 describes.
func rawSWNames() []string {
	names := []string{"raw_pes", "raw_width", "raw_simd", "raw_rf_kb", "raw_l2_kb", "raw_bw",
		"raw_outer_unroll", "raw_inner_unroll"}
	for _, d := range workload.AllDims {
		names = append(names, "raw_t2_"+d.String(), "raw_t1_"+d.String(),
			"raw_pos_outer_"+d.String(), "raw_pos_inner_"+d.String())
	}
	return names
}

// fillRawSW writes Spotlight-V's software row.
func fillRawSW(row []float64, in featureInput) {
	fillRawHW(row, in)
	s := in.s
	row[6] = float64(s.OuterUnroll)
	row[7] = float64(s.InnerUnroll)
	for i, d := range workload.AllDims {
		c := row[8+4*i : 12+4*i]
		c[0] = float64(s.T2[i])
		c[1] = float64(s.T1[i])
		c[2] = float64(orderPosition(&s.OuterOrder, d))
		c[3] = float64(orderPosition(&s.InnerOrder, d))
	}
}

func orderPosition(order *[workload.NumDims]workload.Dim, d workload.Dim) int {
	for i, o := range order {
		if o == d {
			return i
		}
	}
	return -1
}

// fillFigure4HW writes the feature row used by daBO_HW, which sees only
// the accelerator (software is re-optimized per hardware sample).
func fillFigure4HW(row []float64, in featureInput) {
	a := in.a
	_ = row[8]
	row[0] = float64(a.SIMDLanes)
	row[1] = float64(a.NoCBW)
	row[2] = float64(a.PEs)
	row[3] = float64(a.Width)
	row[4] = float64(a.Height())
	row[5] = float64(a.RFKB + a.L2KB)
	row[6] = in.lg(float64(a.PEs * a.SIMDLanes))
	row[7] = a.AreaMM2()
	row[8] = a.PeakPowerMW()
}

// fillRawHW writes the accelerator's raw parameters, Spotlight-V's
// hardware row and the first six columns of its software row.
func fillRawHW(row []float64, in featureInput) {
	a := in.a
	_ = row[5]
	row[0] = float64(a.PEs)
	row[1] = float64(a.Width)
	row[2] = float64(a.SIMDLanes)
	row[3] = float64(a.RFKB)
	row[4] = float64(a.L2KB)
	row[5] = float64(a.NoCBW)
}

// FeaturesFor returns the software (or hardware) feature set for a mode.
func FeaturesFor(mode FeatureMode, hardware bool) FeatureSet {
	switch {
	case mode == FeatureVanilla && hardware:
		return rawHW
	case mode == FeatureVanilla:
		return rawSW
	case mode == FeatureAll && hardware:
		return allHW
	case mode == FeatureAll:
		return allSW
	case hardware:
		return figure4HW
	}
	return figure4SW
}

// Transform applies the feature set to a point, producing the surrogate's
// input vector in a freshly allocated slice.
func Transform(fs FeatureSet, p Point) []float64 {
	out := make([]float64, len(fs.Names))
	TransformTo(out, fs, &p)
	return out
}

// TransformTo writes the feature vector of p into dst, which must have
// length len(fs.Names). It derives the point's terms once (layer
// extents, trip counts and array fold) when the set reads them, then
// fills every column from them.
func TransformTo(dst []float64, fs FeatureSet, p *Point) {
	var t *pointTerms
	if fs.terms {
		t = new(pointTerms)
	}
	fs.fillPoint(dst, p, t)
}

// fillPoint is TransformTo deriving the terms into t, which the caller
// owns, so a proposer featurizing its observations allocates nothing.
func (fs *FeatureSet) fillPoint(dst []float64, p *Point, t *pointTerms) {
	if fs.terms {
		t.derive(p)
	}
	fs.fill(dst, featureInput{a: &p.Accel, s: &p.Sched, t: t})
}

// PermutationImportance measures each feature's importance to a trained
// surrogate (§VII-D, Figure 9): feature column j of the observed design
// matrix is shuffled and the mean absolute change in the surrogate's
// prediction is recorded. Larger changes mean the surrogate leans harder
// on that feature. The result has one entry per column of x.
func PermutationImportance(model gp.Predictor, x [][]float64, rng *rand.Rand) ([]float64, error) {
	if len(x) == 0 {
		return nil, gp.ErrNoData
	}
	base := make([]float64, len(x))
	for i, row := range x {
		m, _, err := model.Predict(row)
		if err != nil {
			return nil, err
		}
		base[i] = m
	}
	dim := len(x[0])
	imp := make([]float64, dim)
	for j := 0; j < dim; j++ {
		perm := rng.Perm(len(x))
		var total float64
		row := make([]float64, dim)
		for i := range x {
			copy(row, x[i])
			row[j] = x[perm[i]][j]
			m, _, err := model.Predict(row)
			if err != nil {
				return nil, err
			}
			total += math.Abs(m - base[i])
		}
		imp[j] = total / float64(len(x))
	}
	return imp, nil
}
