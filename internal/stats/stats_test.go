package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRanksSimple(t *testing.T) {
	r := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestSpearmanPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if rho := Spearman(a, b); !near(rho, 1, 1e-12) {
		t.Fatalf("rho = %v, want 1", rho)
	}
}

func TestSpearmanInverse(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{9, 7, 5, 3}
	if rho := Spearman(a, b); !near(rho, -1, 1e-12) {
		t.Fatalf("rho = %v, want -1", rho)
	}
}

func TestSpearmanMonotoneTransformInvariance(t *testing.T) {
	// Spearman depends only on ranks, so exp() must not change it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		eb := make([]float64, n)
		for i := range b {
			eb[i] = math.Exp(b[i])
		}
		return near(Spearman(a, b), Spearman(a, eb), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanConstantInput(t *testing.T) {
	if rho := Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); rho != 0 {
		t.Fatalf("rho = %v, want 0 for constant input", rho)
	}
}

func TestPearsonKnown(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 4, 6}
	if r := Pearson(a, b); !near(r, 1, 1e-12) {
		t.Fatalf("pearson = %v, want 1", r)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if q := Quantile(v, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(v, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(v, 0.5); !near(q, 2.5, 1e-12) {
		t.Fatalf("median = %v, want 2.5", q)
	}
	if m := Median([]float64{5}); m != 5 {
		t.Fatalf("median single = %v", m)
	}
}

func TestMinMaxSummarize(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5}
	s := Summarize(v)
	if s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if p := c.At(0); p != 0 {
		t.Fatalf("At(0) = %v", p)
	}
	if p := c.At(2); p != 0.5 {
		t.Fatalf("At(2) = %v, want 0.5", p)
	}
	if p := c.At(10); p != 1 {
		t.Fatalf("At(10) = %v, want 1", p)
	}
	if x := c.InverseAt(0.5); x != 2 {
		t.Fatalf("InverseAt(0.5) = %v, want 2", x)
	}
	if x := c.InverseAt(1); x != 4 {
		t.Fatalf("InverseAt(1) = %v, want 4", x)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64()
		}
		c := NewCDF(samples)
		prev := -1.0
		for x := -3.0; x <= 3.0; x += 0.25 {
			p := c.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionBelow(t *testing.T) {
	if f := FractionBelow([]float64{1, 2, 3, 4}, 3); f != 0.5 {
		t.Fatalf("FractionBelow = %v, want 0.5", f)
	}
	if f := FractionBelow(nil, 3); f != 0 {
		t.Fatalf("FractionBelow(nil) = %v, want 0", f)
	}
}

func TestTopQuantileOverlapIdentical(t *testing.T) {
	v := []float64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	if o := TopQuantileOverlap(v, v, 0.2); o != 1 {
		t.Fatalf("overlap of identical vectors = %v, want 1", o)
	}
}

func TestTopQuantileOverlapDisjoint(t *testing.T) {
	a := []float64{0, 1, 10, 10, 10, 10, 10, 10, 10, 10}
	b := []float64{10, 10, 10, 10, 10, 10, 10, 10, 0, 1}
	if o := TopQuantileOverlap(a, b, 0.2); o != 0 {
		t.Fatalf("overlap of disjoint tops = %v, want 0", o)
	}
}

func TestBottomQuantileOverlap(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if o := BottomQuantileOverlap(v, v, 0.2); o != 1 {
		t.Fatalf("bottom overlap = %v, want 1", o)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 8})
	want := []float64{0.25, 0.5, 1}
	for i := range want {
		if !near(out[i], want[i], 1e-12) {
			t.Fatalf("normalize = %v", out)
		}
	}
	zero := Normalize([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("normalize zeros = %v", zero)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			x := Quantile(v, q)
			if x < prev-1e-12 || x < Min(v)-1e-12 || x > Max(v)+1e-12 {
				return false
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
