package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// The stream-golden tests pin the exact sequence of suggestions the
// Spotlight proposers make at a fixed seed against a deterministic fake
// cost. Any change to the candidate loop — sampling order, RNG draws,
// featurization arithmetic, scoring — that alters even one suggestion
// changes the digest. The constants were recorded before the candidate
// loop was optimized, so they certify that the optimized loop is
// bit-identical to the straightforward one.

var errGoldenInvalid = errors.New("golden: infeasible")

// goldenLayers cover a 3×3 convolution, a strided depth-wise
// convolution and a lowered fully-connected layer: different divisor
// structures, strides and unit dimensions.
func goldenLayers() []workload.Layer {
	return []workload.Layer{
		workload.Conv("conv3x3", 1, 64, 64, 3, 3, 58, 58),
		workload.FromDepthwise("dw", 32, 3, 3, 114, 114, 2),
		workload.FromFC("fc", 512, 1000),
	}
}

// goldenSWCost is a deterministic stand-in for a cost model: schedules
// whose tiles overflow the buffers are infeasible; otherwise the cost
// grows with the loop trip counts and depends on the unroll choices, so
// the surrogate has structure to learn.
func goldenSWCost(a hw.Accel, s sched.Schedule, l workload.Layer) (float64, error) {
	if sched.TileFootprint(l, s.T1) > a.RFBytesPerPE() || sched.TileFootprint(l, s.T2) > a.L2Bytes() {
		return 0, errGoldenInvalid
	}
	n2, n1 := s.OuterTrips(l), s.InnerTrips(l)
	c := 1.0
	for i := range n2 {
		c += float64(n2[i]*(i+1)) * float64(n1[i]+1)
	}
	return c * float64(1+int(s.OuterUnroll)) / float64(1+int(s.InnerUnroll)), nil
}

// goldenHWCost favours compute and scratchpad while charging area;
// over-budget designs are infeasible.
func goldenHWCost(b hw.Budget, a hw.Accel) (float64, error) {
	if !b.Fits(a) {
		return 0, errGoldenInvalid
	}
	return 1e6/float64(a.PEs*a.SIMDLanes) + 1e3/float64(a.L2KB) + a.AreaMM2(), nil
}

// swStreamDigest drives one SW proposer per golden layer for rounds
// Suggest/Observe rounds and hashes every suggestion.
func swStreamDigest(s *Spotlight, a hw.Accel, seed int64, rounds int) string {
	h := sha256.New()
	cfg := RunConfig{SWConstraint: sched.Free()}
	for li, l := range goldenLayers() {
		sw := s.NewSW(cfg, rand.New(rand.NewSource(seed+int64(li))), a, l)
		for r := 0; r < rounds; r++ {
			sc := sw.Suggest()
			fmt.Fprintf(h, "%d %d %v\n", li, r, sc)
			obj, err := goldenSWCost(a, sc, l)
			sw.Observe(sc, obj, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hwStreamDigest drives the HW proposer for rounds rounds over space
// under budget and hashes every suggestion.
func hwStreamDigest(s *Spotlight, space hw.Space, budget hw.Budget, seed int64, rounds int) string {
	h := sha256.New()
	p := s.NewHW(RunConfig{Space: space, Budget: budget}, rand.New(rand.NewSource(seed)))
	for r := 0; r < rounds; r++ {
		a := p.Suggest()
		fmt.Fprintf(h, "%d %v\n", r, a)
		obj, err := goldenHWCost(budget, a)
		p.Observe(a, obj, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// skipUnlessAMD64 skips golden digests on architectures whose compilers
// fuse multiply-adds: the constants pin amd64 float rounding.
func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

func TestSpotlightProposerStreamGolden(t *testing.T) {
	skipUnlessAMD64(t)
	accel := hw.Accel{PEs: 168, Width: 12, SIMDLanes: 4, RFKB: 128, L2KB: 192, NoCBW: 128}
	sw := []struct {
		strat *Spotlight
		want  string
	}{
		{NewSpotlight(), "daabe1fad63398aa84e88a2325f50f40c489cfea9aa5c2e9827add21bc62e18b"},
		{NewSpotlightF(), "9f446c220ffc006714c5451b603e777fb8af1ab2ba8abaa6958d51241e6196e1"},
		{NewSpotlightV(), "4f34f7929ee66d4a553675a41df1980b5fb5e20674ff64322ffafb3c7596fb99"},
		{NewSpotlightA(), "504f4ca26369a37a1c53083113d34b74a6789ff8b7e3c74dd8b1e12995c73420"},
	}
	for _, c := range sw {
		t.Run("sw/"+c.strat.Name(), func(t *testing.T) {
			if got := swStreamDigest(c.strat, accel, 4242, 80); got != c.want {
				t.Errorf("suggestion stream digest = %s, want %s", got, c.want)
			}
		})
	}
	hwCases := []struct {
		name   string
		strat  *Spotlight
		space  hw.Space
		budget hw.Budget
		want   string
	}{
		{"edge", NewSpotlight(), hw.EdgeSpace(), hw.EdgeBudget(), "9704ce61cf22a44ffc17d70b1cd8ce72acbb18a8e1f2d0112fc7cfab0c66b966"},
		{"cloud", NewSpotlight(), hw.CloudSpace(), hw.CloudBudget(), "0579e434e9f44a5ebacb289131870e0b69be0e104e90edeb64f7f1dcd7e759b0"},
		{"edge-V", NewSpotlightV(), hw.EdgeSpace(), hw.EdgeBudget(), "5218b4a67ff3527eb15bfd669b26996fba8045d66dd3f9eb760ca0bbe5ef66bc"},
		{"edge-A", NewSpotlightA(), hw.EdgeSpace(), hw.EdgeBudget(), "36e8fc1a7e42eafdfa063dc2e9fa1e8c6f92ea9fed875da34371b0562ae89fda"},
	}
	for _, c := range hwCases {
		t.Run("hw/"+c.name, func(t *testing.T) {
			if got := hwStreamDigest(c.strat, c.space, c.budget, 4242, 60); got != c.want {
				t.Errorf("suggestion stream digest = %s, want %s", got, c.want)
			}
		})
	}
}
