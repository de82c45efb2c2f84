package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spotlight/internal/workload"
)

func testLayer() workload.Layer {
	return workload.Conv("t", 1, 64, 32, 3, 3, 18, 18) // out 16x16
}

func TestDivisors(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{12, []int{1, 2, 3, 4, 6, 12}},
		{16, []int{1, 2, 4, 8, 16}},
		{7, []int{1, 7}},
	}
	for _, c := range cases {
		got := Divisors(c.n)
		if len(got) != len(c.want) {
			t.Fatalf("Divisors(%d) = %v, want %v", c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Divisors(%d) = %v, want %v", c.n, got, c.want)
			}
		}
	}
	if Divisors(0) != nil {
		t.Fatal("Divisors(0) should be nil")
	}
}

func TestDivisorsSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		divs := Divisors(n)
		prev := 0
		for _, d := range divs {
			if d <= prev || n%d != 0 {
				return false
			}
			prev = d
		}
		return divs[0] == 1 && divs[len(divs)-1] == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFreeUnrollChoicesAreShared: an unconstrained level's unroll
// choices are one shared read-only list of the seven dims, so building
// a Sampler or taking a Neighbor step copies nothing for them.
func TestFreeUnrollChoicesAreShared(t *testing.T) {
	c := Free()
	for _, ch := range [][]workload.Dim{c.outerChoices(), c.innerChoices()} {
		if len(ch) != workload.NumDims || [workload.NumDims]workload.Dim(ch) != workload.AllDims {
			t.Fatalf("free unroll choices %v, want %v", ch, workload.AllDims)
		}
	}
	var sink []workload.Dim
	if n := testing.AllocsPerRun(10, func() { sink, sink = c.outerChoices(), c.innerChoices() }); n != 0 {
		t.Errorf("free unroll choices allocated %v objects, want 0", n)
	}
	_ = sink
}

func TestRandomSchedulesValidate(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(7))
	c := Free()
	for i := 0; i < 200; i++ {
		s := c.Random(rng, l, 512, 128<<10)
		if err := s.Validate(l); err != nil {
			t.Fatalf("random schedule %d invalid: %v\n%s", i, err, s)
		}
	}
}

func TestRandomConstrainedRespectsDataflow(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(3))
	c := NVDLALike()
	for i := 0; i < 50; i++ {
		s := c.Random(rng, l, 512, 128<<10)
		if s.OuterUnroll != workload.DimK || s.InnerUnroll != workload.DimC {
			t.Fatalf("NVDLA-like schedule unrolls %v/%v", s.OuterUnroll, s.InnerUnroll)
		}
		if s.OuterOrder[0] != workload.DimN || s.OuterOrder[6] != workload.DimS {
			t.Fatalf("NVDLA-like order not fixed: %v", s.OuterOrder)
		}
		if err := s.Validate(l); err != nil {
			t.Fatalf("invalid constrained schedule: %v", err)
		}
	}
}

func TestSpotlightFOnlyRetilesKC(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(5))
	c := SpotlightF(EyerissLike())
	base1, base2 := FitTiles(l, 512, 128<<10)
	for i := 0; i < 50; i++ {
		s := c.Random(rng, l, 512, 128<<10)
		for j, d := range workload.AllDims {
			if d == workload.DimK || d == workload.DimC {
				continue
			}
			if s.T1[j] != base1[j] || s.T2[j] != base2[j] {
				t.Fatalf("Spotlight-F changed tiling of %s", d)
			}
		}
	}
}

func TestFitTilesWithinBudget(t *testing.T) {
	l := testLayer()
	t1, t2 := FitTiles(l, 512, 64<<10)
	if TileFootprint(l, t1) > 512 {
		t.Fatalf("RF tile footprint %d exceeds 512", TileFootprint(l, t1))
	}
	if TileFootprint(l, t2) > 64<<10 {
		t.Fatalf("L2 tile footprint %d exceeds 64KB", TileFootprint(l, t2))
	}
	for i := range workload.AllDims {
		if t2[i]%t1[i] != 0 {
			t.Fatalf("T1 does not divide T2 at dim %d", i)
		}
	}
}

func TestFitTilesGrowsWithBudget(t *testing.T) {
	l := testLayer()
	_, small := FitTiles(l, 128, 8<<10)
	_, large := FitTiles(l, 4096, 1<<20)
	prodSmall, prodLarge := int64(1), int64(1)
	for i := range workload.AllDims {
		prodSmall *= int64(small[i])
		prodLarge *= int64(large[i])
	}
	if prodLarge <= prodSmall {
		t.Fatalf("larger budget did not grow tiles: %d vs %d", prodLarge, prodSmall)
	}
}

func TestFitTilesTinyBudgetStillValid(t *testing.T) {
	l := testLayer()
	t1, t2 := FitTiles(l, 1, 1)
	for i := range workload.AllDims {
		if t1[i] != 1 || t2[i] != 1 {
			t.Fatalf("tiny budget should give unit tiles, got %v/%v", t1, t2)
		}
	}
}

func TestTileFootprintKnown(t *testing.T) {
	l := testLayer() // stride 1, R=S=3
	var tiles [workload.NumDims]int
	for i := range tiles {
		tiles[i] = 1
	}
	// All-unit tiles: 1 input element, 1 weight, 1 output.
	if got := TileFootprint(l, tiles); got != 3 {
		t.Fatalf("footprint = %d, want 3", got)
	}
	// Full-filter tile over a 2x2 output: input halo 4x4, weight 3x3,
	// output 2x2.
	tiles[workload.DimR], tiles[workload.DimS] = 3, 3
	tiles[workload.DimX], tiles[workload.DimY] = 2, 2
	want := int64(16 + 9 + 4)
	if got := TileFootprint(l, tiles); got != want {
		t.Fatalf("footprint = %d, want %d", got, want)
	}
}

func TestValidateRejectsBadTiles(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(1))
	s := Free().Random(rng, l, 512, 128<<10)
	bad := s
	bad.T2[workload.DimK] = 5 // 5 does not divide 64
	if bad.Validate(l) == nil {
		t.Fatal("non-divisor T2 accepted")
	}
	bad = s
	bad.T1[workload.DimK] = 0
	if bad.Validate(l) == nil {
		t.Fatal("zero T1 accepted")
	}
	bad = s
	bad.OuterOrder[0] = bad.OuterOrder[1]
	if bad.Validate(l) == nil {
		t.Fatal("non-permutation order accepted")
	}
	bad = s
	bad.InnerUnroll = workload.Dim(9)
	if bad.Validate(l) == nil {
		t.Fatal("out-of-range unroll accepted")
	}
}

func TestTrips(t *testing.T) {
	l := testLayer()
	var s Schedule
	for i, d := range workload.AllDims {
		s.T2[i] = l.Size(d)
		s.T1[i] = 1
	}
	s.OuterOrder = CanonicalOrder()
	s.InnerOrder = CanonicalOrder()
	outer := s.OuterTrips(l)
	inner := s.InnerTrips(l)
	for i, d := range workload.AllDims {
		if outer[i] != 1 {
			t.Fatalf("outer trips for %s = %d, want 1", d, outer[i])
		}
		if inner[i] != l.Size(d) {
			t.Fatalf("inner trips for %s = %d, want %d", d, inner[i], l.Size(d))
		}
	}
}

func TestNeighborStaysValid(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(11))
	c := Free()
	s := c.Random(rng, l, 512, 128<<10)
	for i := 0; i < 300; i++ {
		s = c.Neighbor(rng, s, l)
		if err := s.Validate(l); err != nil {
			t.Fatalf("neighbor %d invalid: %v", i, err)
		}
	}
}

func TestNeighborRespectsFixedOrder(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(13))
	c := EyerissLike()
	s := c.Random(rng, l, 512, 128<<10)
	want := s.OuterOrder
	for i := 0; i < 100; i++ {
		s = c.Neighbor(rng, s, l)
		if s.OuterOrder != want {
			t.Fatal("neighbor mutated a fixed loop order")
		}
		if s.OuterUnroll != workload.DimY {
			t.Fatal("neighbor mutated a pinned unroll dimension")
		}
	}
}

func TestCrossoverProducesValid(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(17))
	c := Free()
	for i := 0; i < 100; i++ {
		a := c.Random(rng, l, 512, 128<<10)
		b := c.Random(rng, l, 512, 128<<10)
		child := Crossover(rng, a, b)
		if err := child.Validate(l); err != nil {
			t.Fatalf("crossover child invalid: %v", err)
		}
	}
}

func TestFixedDataflowsDistinct(t *testing.T) {
	dfs := FixedDataflows()
	if len(dfs) != 3 {
		t.Fatalf("got %d fixed dataflows, want 3", len(dfs))
	}
	seen := map[string]bool{}
	for _, d := range dfs {
		if seen[d.Name] {
			t.Fatalf("duplicate dataflow %s", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestSpaceSizeIsAstronomical(t *testing.T) {
	// A mid ResNet-50 layer should have a space around 10^18 (paper §I).
	l := workload.Conv("res3", 1, 128, 128, 3, 3, 30, 30)
	size := SpaceSize(l)
	if size < 1e15 {
		t.Fatalf("space size = %g, expected astronomically large", size)
	}
}

func TestMAERILikeIsFree(t *testing.T) {
	c := MAERILike()
	if c.FixedOuterOrder != nil || len(c.OuterUnrollChoices) != 0 || c.TilableDims != nil {
		t.Fatal("MAERI-like should be unconstrained")
	}
}

func TestScheduleString(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(19))
	s := Free().Random(rng, l, 512, 128<<10)
	if s.String() == "" {
		t.Fatal("empty schedule string")
	}
}
