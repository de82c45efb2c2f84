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
