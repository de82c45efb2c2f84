package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

func testPoint(seed int64) Point {
	rng := rand.New(rand.NewSource(seed))
	a := hw.EdgeSpace().Random(rng)
	l := workload.Conv("t", 1, 64, 32, 3, 3, 18, 18)
	s := sched.Free().Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
	return Point{Accel: a, Sched: s, Layer: l}
}

func TestSoftwareFeaturesFiniteAndStable(t *testing.T) {
	fs := SoftwareFeatures()
	if len(fs.Names) < 8 {
		t.Fatalf("only %d software features; Figure 4 defines more", len(fs.Names))
	}
	for seed := int64(0); seed < 50; seed++ {
		p := testPoint(seed)
		v := Transform(fs, p)
		if len(v) != len(fs.Names) {
			t.Fatal("transform length mismatch")
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("feature %s is %v at seed %d", fs.Names[i], x, seed)
			}
		}
	}
}

// peUtilization reads the pe_utilization column of p's Figure 4 row.
func peUtilization(t *testing.T, p Point) float64 {
	fs := SoftwareFeatures()
	i := slices.Index(fs.Names, "pe_utilization")
	if i < 0 {
		t.Fatal("the Figure 4 set has no pe_utilization column")
	}
	return Transform(fs, p)[i]
}

func TestPEUtilizationRange(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := testPoint(seed)
		u := peUtilization(t, p)
		if u <= 0 || u > 1 {
			t.Fatalf("utilization %v out of (0,1] at seed %d", u, seed)
		}
	}
}

func TestPEUtilizationPerfectCase(t *testing.T) {
	// Unrolled trip counts exactly matching the array give utilization 1.
	a := hw.Accel{PEs: 64, Width: 8, SIMDLanes: 2, RFKB: 64, L2KB: 64, NoCBW: 64}
	l := workload.Conv("t", 1, 8, 8, 1, 1, 8, 8)
	var s sched.Schedule
	for i, d := range workload.AllDims {
		s.T2[i] = l.Size(d)
		s.T1[i] = l.Size(d)
	}
	// L2-level trips of 8 for both K (over the 8 rows) and C (over the 8
	// columns): T2 = full size, T1 = 1.
	s.T1[workload.DimK] = 1
	s.T1[workload.DimC] = 1
	s.OuterOrder = sched.CanonicalOrder()
	s.InnerOrder = sched.CanonicalOrder()
	s.OuterUnroll = workload.DimK
	s.InnerUnroll = workload.DimC
	u := peUtilization(t, Point{Accel: a, Sched: s, Layer: l})
	if math.Abs(u-1) > 1e-12 {
		t.Fatalf("perfect mapping utilization = %v, want 1", u)
	}
}

func TestFeatureNamesUnique(t *testing.T) {
	for _, mode := range []FeatureMode{FeatureSpotlight, FeatureVanilla, FeatureAll} {
		seen := map[string]bool{}
		for _, name := range FeaturesFor(mode, false).Names {
			if seen[name] {
				t.Fatalf("duplicate feature name %q in mode %v", name, mode)
			}
			seen[name] = true
		}
	}
}

func TestFeaturesForModes(t *testing.T) {
	sw := FeaturesFor(FeatureSpotlight, false)
	v := FeaturesFor(FeatureVanilla, false)
	all := FeaturesFor(FeatureAll, false)
	if len(all.Names) != len(sw.Names)+len(v.Names) {
		t.Fatalf("FeatureAll has %d features, want %d", len(all.Names), len(sw.Names)+len(v.Names))
	}
	hwF := FeaturesFor(FeatureSpotlight, true)
	if len(hwF.Names) == 0 {
		t.Fatal("no hardware features")
	}
	// Hardware features must not touch the schedule (zero value is fine).
	p := Point{Accel: hw.EyerissEdge().Accel}
	for i, x := range Transform(hwF, p) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("hardware feature %s not schedule-independent", hwF.Names[i])
		}
	}
}

func TestVanillaFeaturesEncodeOrders(t *testing.T) {
	fs := FeaturesFor(FeatureVanilla, false)
	// 8 scalar params + 4 per dimension.
	want := 8 + 4*workload.NumDims
	if len(fs.Names) != want {
		t.Fatalf("vanilla feature count = %d, want %d", len(fs.Names), want)
	}
	if !fs.ReadsOrder {
		t.Fatal("the vanilla set does not declare that it reads loop orders")
	}
	p := testPoint(1)
	v := Transform(fs, p)
	for i, x := range v {
		if math.IsNaN(x) {
			t.Fatalf("vanilla feature %s is NaN", fs.Names[i])
		}
	}
}

// TestNames: Spotlight-A's names are the Figure 4 names then the raw
// ones, and the raw hardware names are the first six raw software ones.
func TestNames(t *testing.T) {
	for _, hardware := range []bool{false, true} {
		sw, v := FeaturesFor(FeatureSpotlight, hardware), FeaturesFor(FeatureVanilla, hardware)
		if got, want := FeaturesFor(FeatureAll, hardware).Names, append(slices.Clip(sw.Names), v.Names...); !slices.Equal(got, want) {
			t.Fatalf("hardware %v: FeatureAll names %v, want %v", hardware, got, want)
		}
	}
	if got, want := FeaturesFor(FeatureVanilla, true).Names, FeaturesFor(FeatureVanilla, false).Names[:6]; !slices.Equal(got, want) {
		t.Fatalf("raw hardware names %v, want %v", got, want)
	}
}

func TestFeatureModeString(t *testing.T) {
	if FeatureSpotlight.String() != "spotlight" ||
		FeatureVanilla.String() != "vanilla" ||
		FeatureAll.String() != "all" {
		t.Fatal("unexpected mode names")
	}
}

func TestPermutationImportanceFindsActiveFeature(t *testing.T) {
	// y depends strongly on feature 0 and not at all on feature 1.
	rng := rand.New(rand.NewSource(9))
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		row := []float64{rng.NormFloat64(), rng.NormFloat64()}
		x = append(x, row)
		y = append(y, 10*row[0])
	}
	model := gp.New(gp.Linear{Bias: 1}, 1e-6)
	if err := model.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	imp, err := PermutationImportance(model, x, rng)
	if err != nil {
		t.Fatal(err)
	}
	if imp[0] < 10*imp[1] {
		t.Fatalf("importances %v do not isolate the active feature", imp)
	}
}

func TestPermutationImportanceEmpty(t *testing.T) {
	model := gp.New(gp.Linear{Bias: 1}, 1e-6)
	if _, err := PermutationImportance(model, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error on empty input")
	}
}

func TestObjectiveHelpers(t *testing.T) {
	if MinEDP.String() != "EDP" || MinDelay.String() != "delay" {
		t.Fatal("objective names wrong")
	}
	c := maestroCost(5, 10)
	if MinDelay.LayerCost(c) != 10 {
		t.Fatal("delay layer cost wrong")
	}
	if MinEDP.LayerCost(c) != 50 {
		t.Fatal("EDP layer cost wrong")
	}
	if AggregateObjective(MinDelay, 5, 10) != 10 {
		t.Fatal("delay aggregation wrong")
	}
	if AggregateObjective(MinEDP, 5, 10) != 50 {
		t.Fatal("EDP aggregation wrong")
	}
}

func TestTransformToMatchesTransform(t *testing.T) {
	// One reused point, row and terms, mutated between calls, must
	// featurize exactly like a fresh allocating Transform of each point.
	for _, mode := range []FeatureMode{FeatureSpotlight, FeatureVanilla, FeatureAll} {
		fs := FeaturesFor(mode, false)
		row := make([]float64, len(fs.Names))
		var reused Point
		var terms pointTerms // reused across points, as a proposer's is
		for seed := int64(0); seed < 20; seed++ {
			p := testPoint(seed)
			reused.Accel, reused.Sched, reused.Layer = p.Accel, p.Sched, p.Layer
			TransformTo(row, fs, &reused)
			if i, ok := sameBits(row, Transform(fs, p)); !ok {
				t.Fatalf("mode %v seed %d: %s differs via TransformTo", mode, seed, fs.Names[i])
			}
			// A reused point mutated after a fill fills the same row as
			// a fresh point, through TransformTo and through a
			// proposer's reused terms.
			reused.Sched = testPoint(seed + 100).Sched
			fresh := Transform(fs, Point{Accel: reused.Accel, Sched: reused.Sched, Layer: reused.Layer})
			TransformTo(row, fs, &reused)
			if i, ok := sameBits(row, fresh); !ok {
				t.Fatalf("mode %v seed %d: mutated point's %s differs via TransformTo", mode, seed, fs.Names[i])
			}
			fs.fillPoint(row, &reused, &terms)
			if i, ok := sameBits(row, fresh); !ok {
				t.Fatalf("mode %v seed %d: mutated point's %s differs via reused terms", mode, seed, fs.Names[i])
			}
		}
	}
}

// sameBits reports whether got and want hold the same float64 bits,
// and the first column where they differ.
func sameBits(got, want []float64) (int, bool) {
	if len(got) != len(want) {
		return 0, false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// drawnPoint is a candidate drawn the way spotlightSW.Suggest draws
// one: the terms hold the layer's extents, the array height, the trip
// counts its sampler drew with the schedule, and their fold.
type drawnPoint struct {
	Point
	terms pointTerms
}

func drawPoint(rng *xrand.Rand, sp *sched.Sampler, a hw.Accel, l workload.Layer) drawnPoint {
	p := drawnPoint{Point: Point{Accel: a, Layer: l}}
	p.terms.sizes = l.Sizes()
	p.terms.height = a.Height()
	sp.TilesTo(rng, &p.Sched, &p.terms.outer, &p.terms.inner)
	sp.OrdersTo(rng, &p.Sched)
	p.terms.foldOver(&p.Sched, a.Width)
	return p
}

// drawnPoints draws n candidates per layer, through rng.
func drawnPoints(rng *rand.Rand, a hw.Accel, c sched.Constraint, layers []workload.Layer, n int) []drawnPoint {
	var pts []drawnPoint
	g := xrand.Wrap(rng)
	for _, l := range layers {
		sp := c.Sampler(l, a.RFBytesPerPE(), a.L2Bytes())
		for i := 0; i < n; i++ {
			pts = append(pts, drawPoint(g, sp, a, l))
		}
	}
	return pts
}

// featureLayers are the layers of ResNet-50, MobileNetV2 and
// Transformer, and featureConstraints every software constraint.
func featureLayers() []workload.Layer {
	var layers []workload.Layer
	for _, m := range []workload.Model{workload.ResNet50(), workload.MobileNetV2(), workload.Transformer()} {
		layers = append(layers, m.Layers...)
	}
	return layers
}

func featureConstraints() []sched.Constraint {
	cs := []sched.Constraint{sched.Free(), sched.EyerissLike(), sched.NVDLALike(),
		sched.ShiDianNaoLike(), sched.MAERILike()}
	for _, df := range sched.FixedDataflows() {
		cs = append(cs, sched.SpotlightF(df))
	}
	return cs
}

// checkFeatureRows compares every feature set's row for p with the
// reference closures' bit for bit, on both paths the searches fill
// by: derived (TransformTo) and table-fed (Suggest's fill from the
// candidate in place, the trip counts its sampler drew and the log1p
// memo; a hardware set's from the accelerator alone, as
// spotlightHW.Suggest fills). Each fill must write exactly
// len(Names) columns: it gets a row of that length whose every column,
// and the spare capacity behind it, holds a sentinel.
func checkFeatureRows(t *testing.T, p *drawnPoint, logs *log1pMemo) {
	t.Helper()
	const spare = 2
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, mode := range []FeatureMode{FeatureSpotlight, FeatureVanilla, FeatureAll} {
		for _, hardware := range []bool{false, true} {
			fs, ref := FeaturesFor(mode, hardware), refFeaturesFor(mode, hardware)
			point, in := p.Point, featureInput{a: &p.Accel, s: &p.Sched, t: &p.terms, logs: logs}
			if hardware {
				point, in = Point{Accel: p.Accel}, featureInput{a: &p.Accel, logs: logs}
			}
			n := len(fs.Names)
			if n != len(ref) || fs.ReadsOrder != refReadsOrder(ref) {
				t.Fatalf("mode %v hardware %v: %d columns (reads orders %v), reference %d (%v)",
					mode, hardware, n, fs.ReadsOrder, len(ref), refReadsOrder(ref))
			}
			rp := refPoint{point}
			want := make([]float64, n)
			for i, f := range ref {
				if fs.Names[i] != f.Name {
					t.Fatalf("mode %v hardware %v: column %d is %s, reference %s", mode, hardware, i, fs.Names[i], f.Name)
				}
				want[i] = f.Fn(&rp)
			}
			for _, path := range []string{"derived", "table-fed"} {
				buf := make([]float64, n+spare)
				for i := range buf {
					buf[i] = sentinel
				}
				row := buf[:n]
				if path == "derived" {
					TransformTo(row, fs, &point)
				} else {
					fs.fill(row, in)
				}
				for i, x := range buf[n:] {
					if math.Float64bits(x) != math.Float64bits(sentinel) {
						t.Fatalf("mode %v hardware %v, %s: fill wrote column %d of a %d-column row", mode, hardware, path, n+i, n)
					}
				}
				if i, ok := sameBits(row, want); !ok {
					t.Fatalf("%s, %s, %s; mode %v hardware %v, %s: %s = %v (bits %x), reference %v (bits %x)",
						p.Layer.Name, p.Accel, p.Sched, mode, hardware, path, fs.Names[i],
						row[i], math.Float64bits(row[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestDrawnFeaturesMatchTransform: every feature set fills the
// reference closures' row bit for bit, derived and table-fed, over
// random edge and cloud accelerators, the layers of three models and
// every software constraint.
func TestDrawnFeaturesMatchTransform(t *testing.T) {
	layers, constraints := featureLayers(), featureConstraints()
	rng := rand.New(rand.NewSource(11))
	var logs log1pMemo // shared by every row, as a pooled batch's is
	for _, space := range []hw.Space{hw.EdgeSpace(), hw.CloudSpace()} {
		for trial := 0; trial < 3; trial++ {
			a := space.Random(rng)
			for _, c := range constraints {
				for _, p := range drawnPoints(rng, a, c, layers, 4) {
					checkFeatureRows(t, &p, &logs)
				}
			}
		}
	}
}

// FuzzFeatureRow makes TestDrawnFeaturesMatchTransform's comparison
// for one drawn point: an edge or cloud accelerator, a layer of three
// models and a software constraint, all picked by the fuzzer.
func FuzzFeatureRow(f *testing.F) {
	f.Add(int64(1), false, uint16(0), uint8(0))
	f.Add(int64(7), true, uint16(60), uint8(3))
	f.Add(int64(-3), true, uint16(200), uint8(7))
	layers, constraints := featureLayers(), featureConstraints()
	var logs log1pMemo
	f.Fuzz(func(t *testing.T, seed int64, cloud bool, layer uint16, constraint uint8) {
		rng := xrand.New(seed)
		space := hw.EdgeSpace()
		if cloud {
			space = hw.CloudSpace()
		}
		a := space.Random(rng.Rand)
		l := layers[int(layer)%len(layers)]
		sp := constraints[int(constraint)%len(constraints)].Sampler(l, a.RFBytesPerPE(), a.L2Bytes())
		p := drawPoint(rng, sp, a, l)
		checkFeatureRows(t, &p, &logs)
	})
}

// TestLog1pMemoExactOnCollisions: keys that share a slot evict each
// other, and every lookup still returns math.Log1p's bits, including
// the zero memo's own slot (+0) and its signed twin (-0).
func TestLog1pMemoExactOnCollisions(t *testing.T) {
	slot := func(v float64) uint64 { return (math.Float64bits(v) * 0x9E3779B97F4A7C15) >> (64 - log1pBits) }
	keys := []float64{0, math.Copysign(0, -1)}
	for v := 1.0; len(keys) < 6; v++ {
		if slot(v) == slot(0) {
			keys = append(keys, v)
		}
	}
	var m log1pMemo
	for round := 0; round < 3; round++ {
		for i := range keys {
			v := keys[(i*(round+1))%len(keys)]
			if got, want := m.log1p(v), math.Log1p(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("memo log1p(%v) = %v (bits %x), want %v (bits %x)",
					v, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// BenchmarkFeatureTransform measures one candidate's Figure 4 feature
// row over ResNet-50 layers: "generic" is TransformTo, which derives
// the trip counts and calls math.Log1p; "drawn" is how Suggest
// fills, from the trip counts the sampler drew and through a batch's
// log1p memo.
func BenchmarkFeatureTransform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := hw.EdgeSpace().Random(rng)
	pts := drawnPoints(rng, a, sched.Free(), workload.ResNet50().Layers, spotlightBatch)
	fs := SoftwareFeatures()
	row := make([]float64, len(fs.Names))
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TransformTo(row, fs, &pts[i%len(pts)].Point)
		}
	})
	b.Run("drawn", func(b *testing.B) {
		var logs log1pMemo
		for i := 0; i < b.N; i++ {
			p := &pts[i%len(pts)]
			fs.fill(row, featureInput{a: &p.Accel, s: &p.Sched, t: &p.terms, logs: &logs})
		}
	})
}

// The reference featurizer: the per-feature closures the fills
// replaced, kept verbatim, each feature read through a refPoint that
// derives the terms afresh on every call. The fills must match it bit
// for bit.

// refFeature is one hand-designed transformation of a co-design point
// into a real value. ReadsOrder declares that Fn reads the schedule's
// loop orders.
type refFeature struct {
	Name       string
	Fn         func(*refPoint) float64
	ReadsOrder bool
}

type refPoint struct{ Point }

func (p *refPoint) lg(v float64) float64 { return math.Log1p(v) }

func (p *refPoint) terms() *pointTerms {
	t := new(pointTerms)
	t.derive(&p.Point)
	return t
}

func refReadsOrder(fs []refFeature) bool {
	for _, f := range fs {
		if f.ReadsOrder {
			return true
		}
	}
	return false
}

func refSoftwareFeatures() []refFeature {
	return []refFeature{
		{Name: "simd_lanes", Fn: func(p *refPoint) float64 { return float64(p.Accel.SIMDLanes) }},
		{Name: "onchip_bandwidth", Fn: func(p *refPoint) float64 { return float64(p.Accel.NoCBW) }},
		{Name: "total_pes", Fn: func(p *refPoint) float64 { return float64(p.Accel.PEs) }},
		{Name: "pe_array_width", Fn: func(p *refPoint) float64 { return float64(p.Accel.Width) }},
		{Name: "total_onchip_sram", Fn: func(p *refPoint) float64 {
			return float64(p.Accel.RFKB + p.Accel.L2KB)
		}},
		{Name: "kernel_parallelism", Fn: func(p *refPoint) float64 {
			// R₀ × S₀: the filter extent resident at the outer tile level.
			return p.lg(float64(p.Sched.T2[workload.DimR] * p.Sched.T2[workload.DimS]))
		}},
		{Name: "degree_of_unrolling", Fn: func(p *refPoint) float64 {
			// Outer unrolled loop extent × inner unrolled loop extent
			// (both L2-level loops, distributed over rows and columns).
			n1 := &p.terms().inner
			if p.Sched.OuterUnroll == p.Sched.InnerUnroll {
				return p.lg(float64(n1[p.Sched.OuterUnroll]))
			}
			return p.lg(float64(n1[p.Sched.OuterUnroll]) * float64(n1[p.Sched.InnerUnroll]))
		}},
		{Name: "pe_utilization", Fn: refPEUtilization},
		{Name: "loop_iterations", Fn: func(p *refPoint) float64 {
			return p.lg(refLoopIterations(p))
		}},
		{Name: "dram_transfers", Fn: func(p *refPoint) float64 {
			// (X₀/X₂) × (Y₀/Y₂) × (array width + array height).
			t := p.terms()
			return p.lg(float64(t.outer[workload.DimX]) * float64(t.outer[workload.DimY]) *
				float64(p.Accel.Width+t.height))
		}},
		{Name: "common_unrolled_dims", Fn: func(p *refPoint) float64 {
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

func refPEUtilization(p *refPoint) float64 { return p.terms().fold.Utilization() }

func refLoopIterations(p *refPoint) float64 {
	t := p.terms()
	n2, n1 := &t.outer, t.inner
	t.fold.Temporal(&n1)
	iters := 1.0
	for i := range workload.AllDims {
		iters *= float64(n2[i]) * float64(n1[i])
	}
	return iters
}

func refVanillaSoftwareFeatures() []refFeature {
	fs := []refFeature{
		{Name: "raw_pes", Fn: func(p *refPoint) float64 { return float64(p.Accel.PEs) }},
		{Name: "raw_width", Fn: func(p *refPoint) float64 { return float64(p.Accel.Width) }},
		{Name: "raw_simd", Fn: func(p *refPoint) float64 { return float64(p.Accel.SIMDLanes) }},
		{Name: "raw_rf_kb", Fn: func(p *refPoint) float64 { return float64(p.Accel.RFKB) }},
		{Name: "raw_l2_kb", Fn: func(p *refPoint) float64 { return float64(p.Accel.L2KB) }},
		{Name: "raw_bw", Fn: func(p *refPoint) float64 { return float64(p.Accel.NoCBW) }},
		{Name: "raw_outer_unroll", Fn: func(p *refPoint) float64 { return float64(p.Sched.OuterUnroll) }},
		{Name: "raw_inner_unroll", Fn: func(p *refPoint) float64 { return float64(p.Sched.InnerUnroll) }},
	}
	for i, d := range workload.AllDims {
		i, d := i, d
		fs = append(fs,
			refFeature{Name: "raw_t2_" + d.String(), Fn: func(p *refPoint) float64 { return float64(p.Sched.T2[i]) }},
			refFeature{Name: "raw_t1_" + d.String(), Fn: func(p *refPoint) float64 { return float64(p.Sched.T1[i]) }},
			refFeature{Name: "raw_pos_outer_" + d.String(), ReadsOrder: true, Fn: func(p *refPoint) float64 {
				return float64(refOrderPosition(p.Sched.OuterOrder, d))
			}},
			refFeature{Name: "raw_pos_inner_" + d.String(), ReadsOrder: true, Fn: func(p *refPoint) float64 {
				return float64(refOrderPosition(p.Sched.InnerOrder, d))
			}},
		)
	}
	return fs
}

func refOrderPosition(order [workload.NumDims]workload.Dim, d workload.Dim) int {
	for i, o := range order {
		if o == d {
			return i
		}
	}
	return -1
}

func refHardwareFeatures() []refFeature {
	return []refFeature{
		{Name: "simd_lanes", Fn: func(p *refPoint) float64 { return float64(p.Accel.SIMDLanes) }},
		{Name: "onchip_bandwidth", Fn: func(p *refPoint) float64 { return float64(p.Accel.NoCBW) }},
		{Name: "total_pes", Fn: func(p *refPoint) float64 { return float64(p.Accel.PEs) }},
		{Name: "pe_array_width", Fn: func(p *refPoint) float64 { return float64(p.Accel.Width) }},
		{Name: "pe_array_height", Fn: func(p *refPoint) float64 { return float64(p.Accel.Height()) }},
		{Name: "total_onchip_sram", Fn: func(p *refPoint) float64 { return float64(p.Accel.RFKB + p.Accel.L2KB) }},
		{Name: "peak_macs", Fn: func(p *refPoint) float64 { return p.lg(float64(p.Accel.PEs * p.Accel.SIMDLanes)) }},
		{Name: "area", Fn: func(p *refPoint) float64 { return p.Accel.AreaMM2() }},
		{Name: "peak_power", Fn: func(p *refPoint) float64 { return p.Accel.PeakPowerMW() }},
	}
}

func refVanillaHardwareFeatures() []refFeature {
	return refVanillaSoftwareFeatures()[:6]
}

func refFeaturesFor(mode FeatureMode, hardware bool) []refFeature {
	switch mode {
	case FeatureVanilla:
		if hardware {
			return refVanillaHardwareFeatures()
		}
		return refVanillaSoftwareFeatures()
	case FeatureAll:
		if hardware {
			return append(refHardwareFeatures(), refVanillaHardwareFeatures()...)
		}
		return append(refSoftwareFeatures(), refVanillaSoftwareFeatures()...)
	default:
		if hardware {
			return refHardwareFeatures()
		}
		return refSoftwareFeatures()
	}
}
