package hw

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func validAccel() Accel {
	return Accel{PEs: 168, Width: 14, SIMDLanes: 2, RFKB: 80, L2KB: 128, NoCBW: 64}
}

func TestAccelDerived(t *testing.T) {
	a := validAccel()
	if a.Height() != 12 {
		t.Fatalf("height = %d, want 12", a.Height())
	}
	if a.RFBytesPerPE() != int64(80<<10)/168 {
		t.Fatalf("RF/PE = %d", a.RFBytesPerPE())
	}
	if a.L2Bytes() != 128<<10 {
		t.Fatalf("L2 bytes = %d", a.L2Bytes())
	}
}

func TestAccelValidate(t *testing.T) {
	if err := validAccel().Validate(); err != nil {
		t.Fatalf("valid accel rejected: %v", err)
	}
	bad := validAccel()
	bad.Width = 13 // does not divide 168
	if bad.Validate() == nil {
		t.Fatal("non-dividing width accepted")
	}
	bad = validAccel()
	bad.PEs = 0
	if bad.Validate() == nil {
		t.Fatal("zero PEs accepted")
	}
}

func TestAreaPowerPositiveAndMonotone(t *testing.T) {
	a := validAccel()
	if a.AreaMM2() <= 0 || a.PeakPowerMW() <= 0 {
		t.Fatal("non-positive area or power")
	}
	bigger := a
	bigger.PEs, bigger.Width = 2*a.PEs, a.Width
	if bigger.AreaMM2() <= a.AreaMM2() {
		t.Fatal("area not monotone in PEs")
	}
	bigger = a
	bigger.L2KB = 2 * a.L2KB
	if bigger.AreaMM2() <= a.AreaMM2() || bigger.PeakPowerMW() <= a.PeakPowerMW() {
		t.Fatal("area/power not monotone in L2")
	}
	bigger = a
	bigger.SIMDLanes = 2 * a.SIMDLanes
	if bigger.PeakPowerMW() <= a.PeakPowerMW() {
		t.Fatal("power not monotone in SIMD lanes")
	}
}

func TestBudget(t *testing.T) {
	a := validAccel()
	tight := Budget{AreaMM2: a.AreaMM2() - 1, PowerMW: 1e9}
	if tight.Fits(a) || tight.Check(a) == nil {
		t.Fatal("over-area config accepted")
	}
	tightP := Budget{AreaMM2: 1e9, PowerMW: a.PeakPowerMW() - 1}
	if tightP.Fits(a) || tightP.Check(a) == nil {
		t.Fatal("over-power config accepted")
	}
	loose := Budget{AreaMM2: 1e9, PowerMW: 1e9}
	if !loose.Fits(a) || loose.Check(a) != nil {
		t.Fatal("in-budget config rejected")
	}
}

func TestEdgeSpaceSamplesValid(t *testing.T) {
	s := EdgeSpace()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := s.Random(rng)
		if err := a.Validate(); err != nil {
			t.Fatalf("sample %d invalid: %v (%s)", i, err, a)
		}
		if !s.Contains(a) {
			t.Fatalf("sample %d outside its own space: %s", i, a)
		}
		if a.RFKB%s.RFStride != 0 || a.L2KB%s.L2Stride != 0 {
			t.Fatalf("sample %d violates stride: %s", i, a)
		}
	}
}

func TestCloudSpaceSamplesValid(t *testing.T) {
	s := CloudSpace()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := s.Random(rng)
		if err := a.Validate(); err != nil {
			t.Fatalf("cloud sample invalid: %v", err)
		}
		if !s.Contains(a) {
			t.Fatalf("cloud sample outside space: %s", a)
		}
	}
}

func TestEdgeBudgetIsActive(t *testing.T) {
	// Some edge samples must fit and some must not, so the budget
	// constraint is a real part of the search problem.
	s := EdgeSpace()
	b := EdgeBudget()
	rng := rand.New(rand.NewSource(3))
	var fit, unfit int
	for i := 0; i < 1000; i++ {
		if b.Fits(s.Random(rng)) {
			fit++
		} else {
			unfit++
		}
	}
	if fit == 0 || unfit == 0 {
		t.Fatalf("edge budget not active: %d fit, %d unfit", fit, unfit)
	}
}

func TestNeighborStaysInSpace(t *testing.T) {
	s := EdgeSpace()
	rng := rand.New(rand.NewSource(4))
	a := s.Random(rng)
	for i := 0; i < 300; i++ {
		a = s.Neighbor(rng, a)
		if err := a.Validate(); err != nil {
			t.Fatalf("neighbor invalid: %v", err)
		}
		if !s.Contains(a) {
			t.Fatalf("neighbor escaped space: %s", a)
		}
	}
}

func TestCrossoverValid(t *testing.T) {
	s := EdgeSpace()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		child := Crossover(rng, s.Random(rng), s.Random(rng))
		if err := child.Validate(); err != nil {
			t.Fatalf("crossover child invalid: %v", err)
		}
	}
}

func TestBaselinesFitTheirBudgets(t *testing.T) {
	eb := EdgeBudget()
	for _, b := range EdgeBaselines() {
		if err := b.Accel.Validate(); err != nil {
			t.Errorf("%s invalid: %v", b.Name, err)
		}
		if err := eb.Check(b.Accel); err != nil {
			t.Errorf("%s exceeds edge budget: %v", b.Name, err)
		}
	}
	cb := CloudBudget()
	for _, b := range CloudBaselines() {
		if err := b.Accel.Validate(); err != nil {
			t.Errorf("%s invalid: %v", b.Name, err)
		}
		if err := cb.Check(b.Accel); err != nil {
			t.Errorf("%s exceeds cloud budget: %v", b.Name, err)
		}
	}
}

func TestBaselineConstraintsMatchDataflows(t *testing.T) {
	bs := EdgeBaselines()
	if bs[0].Constraint.Name != "eyeriss-like+tiling" ||
		bs[1].Constraint.Name != "nvdla-like+tiling" ||
		bs[2].Constraint.Name != "maeri-like" {
		t.Fatal("baseline constraints mislabeled")
	}
}

// TestBaselinesFor looks up each scale by name: its space, and the
// baselines compared at that scale. An unknown name is refused.
func TestBaselinesFor(t *testing.T) {
	for _, name := range []string{"edge", "cloud"} {
		sc, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Space.Name != name || len(sc.Baselines()) == 0 {
			t.Fatalf("scale %q: space %q, %d baselines", name, sc.Space.Name, len(sc.Baselines()))
		}
	}
	if _, err := ScaleByName("galaxy"); err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("unknown scale: err = %v", err)
	}
}

// Property: any sampled edge config has Width dividing PEs and the
// derived height is consistent.
func TestAspectRatioProperty(t *testing.T) {
	s := EdgeSpace()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := s.Random(rng)
		return a.PEs%a.Width == 0 && a.Height()*a.Width == a.PEs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAccelString(t *testing.T) {
	if validAccel().String() == "" {
		t.Fatal("empty accel string")
	}
}
