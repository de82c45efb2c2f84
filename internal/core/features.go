package core

import (
	"math"
	"math/rand"

	"spotlight/internal/gp"
	"spotlight/internal/workload"
)

// Feature is one hand-designed transformation of a co-design point into a
// real value, carrying the domain information of §IV-B.
//
// Fn reads the point through a pointer, so featurizing a candidate copies
// neither its schedule nor its layer.
type Feature struct {
	Name string
	Fn   func(*Point) float64
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
// guideline (3) of §IV-B2. It returns math.Log1p(v), through p's memo
// when one is set.
func (p *Point) lg(v float64) float64 {
	if p.logs != nil {
		return p.logs.log1p(v)
	}
	return math.Log1p(v)
}

// log1pBits sizes the log1p memo: 2^log1pBits slots of 16 bytes.
const log1pBits = 10

// log1pMemo is a direct-mapped memo of math.Log1p keyed by the
// argument's float64 bits. A hit returns the float64 math.Log1p
// returned for the same bits, so it is exact; a miss overwrites its
// slot. A zero slot holds log1p(+0) = +0, so the zero memo is already
// correct and no entry ever needs invalidating. Every lg argument of
// the Figure 4 features is an integer built from a layer's tile
// tables, so a search repeats a few thousand of them.
type log1pMemo [1 << log1pBits]struct {
	key uint64
	val float64
}

func (m *log1pMemo) log1p(v float64) float64 {
	k := math.Float64bits(v)
	e := &m[(k*0x9E3779B97F4A7C15)>>(64-log1pBits)]
	if e.key != k {
		e.key, e.val = k, math.Log1p(v)
	}
	return e.val
}

// SoftwareFeatures returns the Figure 4 feature set used by daBO_SW. The
// first four entries are the raw cardinal parameters; the rest encode the
// domain information described in §IV-B2.
func SoftwareFeatures() []Feature {
	return []Feature{
		{"simd_lanes", func(p *Point) float64 { return float64(p.Accel.SIMDLanes) }},
		{"onchip_bandwidth", func(p *Point) float64 { return float64(p.Accel.NoCBW) }},
		{"total_pes", func(p *Point) float64 { return float64(p.Accel.PEs) }},
		{"pe_array_width", func(p *Point) float64 { return float64(p.Accel.Width) }},
		{"total_onchip_sram", func(p *Point) float64 {
			return float64(p.Accel.RFKB + p.Accel.L2KB)
		}},
		{"kernel_parallelism", func(p *Point) float64 {
			// R₀ × S₀: the filter extent resident at the outer tile level.
			return p.lg(float64(p.Sched.T2[workload.DimR] * p.Sched.T2[workload.DimS]))
		}},
		{"degree_of_unrolling", func(p *Point) float64 {
			// Outer unrolled loop extent × inner unrolled loop extent
			// (both L2-level loops, distributed over rows and columns).
			n1 := &p.terms().inner
			if p.Sched.OuterUnroll == p.Sched.InnerUnroll {
				return p.lg(float64(n1[p.Sched.OuterUnroll]))
			}
			return p.lg(float64(n1[p.Sched.OuterUnroll]) * float64(n1[p.Sched.InnerUnroll]))
		}},
		{"pe_utilization", peUtilization},
		{"loop_iterations", func(p *Point) float64 {
			return p.lg(loopIterations(p))
		}},
		{"dram_transfers", func(p *Point) float64 {
			// (X₀/X₂) × (Y₀/Y₂) × (array width + array height).
			t := p.terms()
			return p.lg(float64(t.outer[workload.DimX]) * float64(t.outer[workload.DimY]) *
				float64(p.Accel.Width+t.height))
		}},
		{"common_unrolled_dims", func(p *Point) float64 {
			// Prime-basis linear combination spreading the few unique
			// values of each tile parameter apart (§IV-B2).
			s := &p.Sched
			return p.lg(2*float64(s.T2[workload.DimX]) +
				3*float64(s.T2[workload.DimY]) +
				5*float64(p.terms().sizes[workload.DimK]) +
				7*float64(s.T2[workload.DimK]) +
				11*float64(s.T1[workload.DimK]))
		}},
	}
}

// peUtilization is the Figure 4 utilization feature: the fraction of the
// array doing useful work after both spatial distributions (rows take
// the outer-unrolled L2-level loop, columns the inner one), including
// partial-tile (edge-case) waste.
func peUtilization(p *Point) float64 { return p.terms().fold.Utilization() }

// loopIterations approximates the number of temporal iterations to
// completion after spatial distribution.
func loopIterations(p *Point) float64 {
	t := p.terms()
	n2, n1 := &t.outer, t.inner
	t.fold.Temporal(&n1)
	iters := 1.0
	for i := range workload.AllDims {
		iters *= float64(n2[i]) * float64(n1[i])
	}
	return iters
}

// VanillaSoftwareFeatures returns the raw software parameter encoding
// used by Spotlight-V: per-dimension tile sizes at both levels, the
// position of each dimension in each loop order, and the unroll
// dimensions as bare indices. Categorical structure is exposed to the
// surrogate without any domain interpretation — precisely the handicap
// §IV-B1 describes.
func VanillaSoftwareFeatures() []Feature {
	fs := []Feature{
		{"raw_pes", func(p *Point) float64 { return float64(p.Accel.PEs) }},
		{"raw_width", func(p *Point) float64 { return float64(p.Accel.Width) }},
		{"raw_simd", func(p *Point) float64 { return float64(p.Accel.SIMDLanes) }},
		{"raw_rf_kb", func(p *Point) float64 { return float64(p.Accel.RFKB) }},
		{"raw_l2_kb", func(p *Point) float64 { return float64(p.Accel.L2KB) }},
		{"raw_bw", func(p *Point) float64 { return float64(p.Accel.NoCBW) }},
		{"raw_outer_unroll", func(p *Point) float64 { return float64(p.Sched.OuterUnroll) }},
		{"raw_inner_unroll", func(p *Point) float64 { return float64(p.Sched.InnerUnroll) }},
	}
	for i, d := range workload.AllDims {
		i, d := i, d
		fs = append(fs,
			Feature{"raw_t2_" + d.String(), func(p *Point) float64 { return float64(p.Sched.T2[i]) }},
			Feature{"raw_t1_" + d.String(), func(p *Point) float64 { return float64(p.Sched.T1[i]) }},
			Feature{"raw_pos_outer_" + d.String(), func(p *Point) float64 {
				return float64(orderPosition(p.Sched.OuterOrder, d))
			}},
			Feature{"raw_pos_inner_" + d.String(), func(p *Point) float64 {
				return float64(orderPosition(p.Sched.InnerOrder, d))
			}},
		)
	}
	return fs
}

func orderPosition(order [workload.NumDims]workload.Dim, d workload.Dim) int {
	for i, o := range order {
		if o == d {
			return i
		}
	}
	return -1
}

// HardwareFeatures returns the feature set used by daBO_HW, which sees
// only the accelerator (software is re-optimized per hardware sample).
func HardwareFeatures() []Feature {
	return []Feature{
		{"simd_lanes", func(p *Point) float64 { return float64(p.Accel.SIMDLanes) }},
		{"onchip_bandwidth", func(p *Point) float64 { return float64(p.Accel.NoCBW) }},
		{"total_pes", func(p *Point) float64 { return float64(p.Accel.PEs) }},
		{"pe_array_width", func(p *Point) float64 { return float64(p.Accel.Width) }},
		{"pe_array_height", func(p *Point) float64 { return float64(p.Accel.Height()) }},
		{"total_onchip_sram", func(p *Point) float64 { return float64(p.Accel.RFKB + p.Accel.L2KB) }},
		{"peak_macs", func(p *Point) float64 { return p.lg(float64(p.Accel.PEs * p.Accel.SIMDLanes)) }},
		{"area", func(p *Point) float64 { return p.Accel.AreaMM2() }},
		{"peak_power", func(p *Point) float64 { return p.Accel.PeakPowerMW() }},
	}
}

// VanillaHardwareFeatures returns the raw hardware parameters for
// Spotlight-V's hardware search.
func VanillaHardwareFeatures() []Feature {
	return VanillaSoftwareFeatures()[:6]
}

// FeaturesFor returns the software (or hardware) feature set for a mode.
func FeaturesFor(mode FeatureMode, hardware bool) []Feature {
	switch mode {
	case FeatureVanilla:
		if hardware {
			return VanillaHardwareFeatures()
		}
		return VanillaSoftwareFeatures()
	case FeatureAll:
		if hardware {
			return append(HardwareFeatures(), VanillaHardwareFeatures()...)
		}
		return append(SoftwareFeatures(), VanillaSoftwareFeatures()...)
	default:
		if hardware {
			return HardwareFeatures()
		}
		return SoftwareFeatures()
	}
}

// Transform applies the feature set to a point, producing the surrogate's
// input vector in a freshly allocated slice.
func Transform(fs []Feature, p Point) []float64 {
	out := make([]float64, len(fs))
	TransformTo(out, fs, &p)
	return out
}

// TransformTo writes the feature vector of p into dst, which must have
// length len(fs). The point's derived terms (layer extents and trip
// counts) are computed at most once for the whole feature set rather
// than once per feature that reads them. They are cached in p for the
// duration of the call, so one Point must not be featurized from two
// goroutines at once.
func TransformTo(dst []float64, fs []Feature, p *Point) { p.transform(dst, fs, false) }

// transform is TransformTo. drawn reports that the caller has already
// written p's terms to p.cached: the layer's extents, the trip counts
// its sampler drew with p.Sched (sched.Sampler.RandomTripsTo), and the
// accelerator's height, which a search sets once (a zero height is
// derived here). transform adds the folds, and the features read those
// terms instead of deriving them, so the row is bit-identical to
// TransformTo's.
func (p *Point) transform(dst []float64, fs []Feature, drawn bool) {
	if drawn {
		t := &p.cached
		if t.height == 0 {
			t.height = p.Accel.Height()
		}
		t.fold.Fold(p.Sched.OuterUnroll, p.Sched.InnerUnroll, &t.inner, t.height, p.Accel.Width)
	}
	p.memo, p.derived = true, drawn
	for i, f := range fs {
		dst[i] = f.Fn(p)
	}
	p.memo, p.derived = false, false
}

// Names returns the feature names in order.
func Names(fs []Feature) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
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
