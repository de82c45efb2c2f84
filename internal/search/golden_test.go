package search

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

// TestBaselineSWStreamGolden pins the exact sequence of suggestions the
// baseline software proposers make at a fixed seed against a
// deterministic fake cost, over the same three layers the core and
// sched golden tests use. Any change to their sampling — which tables a
// draw reads, how many RNG values it consumes and in what order — that
// alters even one suggestion changes the digest. The constants were
// recorded before the baselines' samplers were hoisted out of Suggest
// and before the table-driven draws replaced math/rand's Intn and
// Shuffle.
func TestBaselineSWStreamGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64")
	}
	accel := hw.Accel{PEs: 168, Width: 12, SIMDLanes: 4, RFKB: 128, L2KB: 192, NoCBW: 128}
	cases := []struct {
		strat core.Strategy
		want  string
	}{
		{NewRandom(), "9aa794f0927345708d5c8f088cde309e4dffd26c404e62458e5816b4a66abf77"},
		{NewGenetic(), "54484f86e2f0208bb86a08ac19c4aa81a1544ada4b88b7731b7d55ed902a0672"},
		{NewHASCO(), "d6403762dcbceb6b39fd8a4d55c2a2c4addd28ede5fbd33948a21e963cfdab55"},
		{NewConfuciuX(), "9338d853571976c2db603fab32c39b761b1751c62d3f1d3d44be5653f9850797"},
	}
	for _, c := range cases {
		t.Run(c.strat.Name(), func(t *testing.T) {
			if got := baselineSWDigest(c.strat, accel, 4242, 80); got != c.want {
				t.Errorf("suggestion stream digest = %s, want %s", got, c.want)
			}
		})
	}
}

var errGoldenInvalid = errors.New("golden: infeasible")

// baselineSWDigest drives one SW proposer per golden layer for rounds
// Suggest/Observe rounds and hashes every suggestion.
func baselineSWDigest(s core.Strategy, a hw.Accel, seed int64, rounds int) string {
	layers := []workload.Layer{
		workload.Conv("conv3x3", 1, 64, 64, 3, 3, 58, 58),
		workload.FromDepthwise("dw", 32, 3, 3, 114, 114, 2),
		workload.FromFC("fc", 512, 1000),
	}
	h := sha256.New()
	cfg := core.RunConfig{SWConstraint: sched.Free()}
	for li, l := range layers {
		sw := s.NewSW(cfg, xrand.New(seed+int64(li)).Rand, a, l)
		for r := 0; r < rounds; r++ {
			sc := sw.Suggest()
			fmt.Fprintf(h, "%d %d %v\n", li, r, sc)
			obj, err := goldenSWCost(a, sc, l)
			sw.Observe(sc, obj, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSWCost is a deterministic stand-in for a cost model: schedules
// whose tiles overflow the buffers are infeasible; otherwise the cost
// grows with the loop trip counts and depends on the unroll choices, so
// the learning baselines have structure to react to.
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

// TestBaselineHWStreamGolden pins the baseline hardware proposers'
// suggestion streams the same way, against a deterministic fake cost
// that rejects designs over the edge budget. The constants were
// recorded before HASCO's proposer featurized into rows it owns.
func TestBaselineHWStreamGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64")
	}
	cases := []struct {
		strat core.Strategy
		want  string
	}{
		{NewRandom(), "f0f5b35a290ef2d60cd704a978983ab648b7311648a263580b79ec0992ff54a0"},
		{NewGenetic(), "e75183503312ead594103376152ecf50435bcd94956207f4826aa22be13d4cd4"},
		{NewHASCO(), "3f8e7800229b6ffea388e05e74b4f22f3a80314d0dce46e6c336164a2e95de59"},
		{NewConfuciuX(), "e293d5370d0d0736ae321aaed2138bce451acb9acaf6f2e560a8d9aa9d0bca0f"},
	}
	for _, c := range cases {
		t.Run(c.strat.Name(), func(t *testing.T) {
			if got := baselineHWDigest(c.strat, 4242, 40); got != c.want {
				t.Errorf("suggestion stream digest = %s, want %s", got, c.want)
			}
		})
	}
}

// baselineHWDigest drives a strategy's HW proposer over the edge space
// for rounds Suggest/Observe rounds and hashes every suggestion.
func baselineHWDigest(s core.Strategy, seed int64, rounds int) string {
	cfg := core.RunConfig{Space: hw.EdgeSpace(), Budget: hw.EdgeBudget(), HWSamples: rounds}
	h := sha256.New()
	p := s.NewHW(cfg, xrand.New(seed).Rand)
	for r := 0; r < rounds; r++ {
		a := p.Suggest()
		fmt.Fprintf(h, "%d %v\n", r, a)
		if err := cfg.Budget.Check(a); err != nil {
			p.Observe(a, 0, errGoldenInvalid)
			continue
		}
		p.Observe(a, a.AreaMM2()*float64(1+a.NoCBW%7)/float64(a.PEs), nil)
	}
	return hex.EncodeToString(h.Sum(nil))
}
