package search

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
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
		{NewRandom(), "7874ff834b2eafaeb627b3f68d050006bf3edb1af4abdc7a8de0cca5eb4315c4"},
		{NewGenetic(), "5725094fd9f350559f4c1f3bc5b70bc751bf5f4888f91cd0986dae2637d2c937"},
		{NewHASCO(), "ed28ae7861da2607956921481600055647b65c30c32020104c07d06bd9c328c7"},
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
		{NewRandom(), "ce04e8bad6c216b14d58671086558b0b56f6f67a2de1d06896d5f19598e10de1"},
		{NewGenetic(), "272678520962abd794f82f446c6b74e9446d8124d33b2c473d2df2fa79fb8ce4"},
		{NewHASCO(), "af1a863e2977acc69895f264b1b1ede4d541edf3075158d9acab82ea1e64b0a2"},
		{NewConfuciuX(), "1656cfcde9e44e60be061dcb5867713b0958fa45fe2fa82dd217ef992d3cab8e"},
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
	p := s.NewHW(cfg, rand.New(rand.NewSource(seed)))
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
