package core

import (
	"math"
	"math/rand"
	"testing"

	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
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
	if len(fs) < 8 {
		t.Fatalf("only %d software features; Figure 4 defines more", len(fs))
	}
	for seed := int64(0); seed < 50; seed++ {
		p := testPoint(seed)
		v := Transform(fs, p)
		if len(v) != len(fs) {
			t.Fatal("transform length mismatch")
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("feature %s is %v at seed %d", fs[i].Name, x, seed)
			}
		}
	}
}

func TestPEUtilizationRange(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := testPoint(seed)
		u := peUtilization(&p)
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
	u := peUtilization(&Point{Accel: a, Sched: s, Layer: l})
	if math.Abs(u-1) > 1e-12 {
		t.Fatalf("perfect mapping utilization = %v, want 1", u)
	}
}

func TestFeatureNamesUnique(t *testing.T) {
	for _, mode := range []FeatureMode{FeatureSpotlight, FeatureVanilla, FeatureAll} {
		fs := FeaturesFor(mode, false)
		seen := map[string]bool{}
		for _, f := range fs {
			if seen[f.Name] {
				t.Fatalf("duplicate feature name %q in mode %v", f.Name, mode)
			}
			seen[f.Name] = true
		}
	}
}

func TestFeaturesForModes(t *testing.T) {
	sw := FeaturesFor(FeatureSpotlight, false)
	v := FeaturesFor(FeatureVanilla, false)
	all := FeaturesFor(FeatureAll, false)
	if len(all) != len(sw)+len(v) {
		t.Fatalf("FeatureAll has %d features, want %d", len(all), len(sw)+len(v))
	}
	hwF := FeaturesFor(FeatureSpotlight, true)
	if len(hwF) == 0 {
		t.Fatal("no hardware features")
	}
	// Hardware features must not touch the schedule (zero value is fine).
	p := Point{Accel: hw.EyerissEdge().Accel}
	for _, f := range hwF {
		x := f.Fn(&p)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("hardware feature %s not schedule-independent", f.Name)
		}
	}
}

func TestVanillaFeaturesEncodeOrders(t *testing.T) {
	fs := VanillaSoftwareFeatures()
	// 8 scalar params + 4 per dimension.
	want := 8 + 4*workload.NumDims
	if len(fs) != want {
		t.Fatalf("vanilla feature count = %d, want %d", len(fs), want)
	}
	p := testPoint(1)
	v := Transform(fs, p)
	for i, x := range v {
		if math.IsNaN(x) {
			t.Fatalf("vanilla feature %s is NaN", fs[i].Name)
		}
	}
}

func TestNames(t *testing.T) {
	fs := SoftwareFeatures()
	names := Names(fs)
	if len(names) != len(fs) || names[0] != fs[0].Name {
		t.Fatal("Names mismatch")
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
	// One reused point and row, mutated between calls, must featurize
	// exactly like a fresh allocating Transform of each point: the
	// derived terms are never stale.
	for _, mode := range []FeatureMode{FeatureSpotlight, FeatureVanilla, FeatureAll} {
		fs := FeaturesFor(mode, false)
		row := make([]float64, len(fs))
		var reused Point
		for seed := int64(0); seed < 20; seed++ {
			p := testPoint(seed)
			reused.Accel, reused.Sched, reused.Layer = p.Accel, p.Sched, p.Layer
			TransformTo(row, fs, &reused)
			want := Transform(fs, p)
			for i := range want {
				if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
					t.Fatalf("mode %v seed %d: %s = %v via TransformTo, %v via Transform",
						mode, seed, fs[i].Name, row[i], want[i])
				}
			}
			// A feature called on its own after TransformTo sees the
			// current schedule, not the terms cached for the last one.
			reused.Sched = testPoint(seed + 100).Sched
			got := peUtilization(&reused)
			fresh := peUtilization(&Point{Accel: reused.Accel, Sched: reused.Sched, Layer: reused.Layer})
			if math.Float64bits(got) != math.Float64bits(fresh) {
				t.Fatalf("stale derived terms: %v, want %v", got, fresh)
			}
		}
	}
}

// drawnPoints draws n candidates per layer the way spotlightSW.Suggest
// does: each point carries the layer's extents and the trip counts its
// sampler drew with the schedule.
func drawnPoints(rng *rand.Rand, a hw.Accel, c sched.Constraint, layers []workload.Layer, n int) []Point {
	var pts []Point
	for _, l := range layers {
		sp := c.Sampler(l, a.RFBytesPerPE(), a.L2Bytes())
		for i := 0; i < n; i++ {
			p := Point{Accel: a, Layer: l}
			p.cached.sizes = l.Sizes()
			sp.TilesTo(rng, &p.Sched, &p.cached.outer, &p.cached.inner)
			sp.OrdersTo(rng, &p.Sched)
			pts = append(pts, p)
		}
	}
	return pts
}

// TestDrawnFeaturesMatchTransform: featurizing from the sampler's trip
// counts through the log1p memo gives TransformTo's row bit for bit,
// over random edge and cloud accelerators, the layers of three models
// and every software constraint, in every feature mode.
func TestDrawnFeaturesMatchTransform(t *testing.T) {
	var layers []workload.Layer
	for _, m := range []workload.Model{workload.ResNet50(), workload.MobileNetV2(), workload.Transformer()} {
		layers = append(layers, m.Layers...)
	}
	constraints := []sched.Constraint{sched.Free(), sched.EyerissLike(), sched.NVDLALike(),
		sched.ShiDianNaoLike(), sched.MAERILike()}
	for _, df := range sched.FixedDataflows() {
		constraints = append(constraints, sched.SpotlightF(df))
	}
	rng := rand.New(rand.NewSource(11))
	var logs log1pMemo // shared by every row, as a pooled batch's is
	for _, space := range []hw.Space{hw.EdgeSpace(), hw.CloudSpace()} {
		for trial := 0; trial < 3; trial++ {
			a := space.Random(rng)
			for _, c := range constraints {
				for _, p := range drawnPoints(rng, a, c, layers, 4) {
					for _, mode := range []FeatureMode{FeatureSpotlight, FeatureVanilla, FeatureAll} {
						fs := FeaturesFor(mode, false)
						want, got := make([]float64, len(fs)), make([]float64, len(fs))
						plain := Point{Accel: p.Accel, Sched: p.Sched, Layer: p.Layer}
						TransformTo(want, fs, &plain)
						p.logs = &logs
						p.transform(got, fs, true)
						for i := range fs {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s on %s, %s: %s = %v from the tables, %v from TransformTo",
									c.Name, p.Layer.Name, a, fs[i].Name, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
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
// featurizes, from the trip counts the sampler drew and through a
// batch's log1p memo.
func BenchmarkFeatureTransform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := hw.EdgeSpace().Random(rng)
	pts := drawnPoints(rng, a, sched.Free(), workload.ResNet50().Layers, spotlightBatch)
	fs := SoftwareFeatures()
	row := make([]float64, len(fs))
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TransformTo(row, fs, &pts[i%len(pts)])
		}
	})
	b.Run("drawn", func(b *testing.B) {
		var logs log1pMemo
		for i := range pts {
			pts[i].logs = &logs
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pts[i%len(pts)].transform(row, fs, true)
		}
	})
}
