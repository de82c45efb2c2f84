package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spotlight/internal/workload"
)

// TestConstraintRandomGolden pins the exact schedules Constraint.Random
// draws at a fixed seed for every constraint family the searches use.
// The constants were recorded before the sampler gained precomputed
// divisor tables, so they certify the table-driven sampler consumes the
// same RNG stream in the same order.
func TestConstraintRandomGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64")
	}
	layers := []workload.Layer{
		workload.Conv("conv3x3", 1, 64, 64, 3, 3, 58, 58),
		workload.FromDepthwise("dw", 32, 3, 3, 114, 114, 2),
		workload.FromFC("fc", 512, 1000),
	}
	// Two buffer configurations: a roomy one and a tight one, so the
	// heuristic FitTiles path grows to different tiles.
	buffers := [][2]int64{{1 << 10, 192 << 10}, {64, 16 << 10}}
	cases := []struct {
		c    Constraint
		want string
	}{
		{Free(), "9d39fb72a9739d8a4a1200c205029f9c6d26ab71a475303afd1b39be52309c99"},
		{SpotlightF(EyerissLike()), "4a0cf4dfe8945a1a8bf8a0d4f9d645982eaa9557f64b358306dd18f06877e042"},
		{SpotlightF(NVDLALike()), "3fbb08d4debaf7d535613d42a3b9627239de164cf8e17a2763a72735add61eea"},
		{SpotlightF(ShiDianNaoLike()), "c33e78121a41b3673feab6614a8a4866bead0f6524fd1d8f700eddbbd233fa0d"},
		{EyerissLike(), "5e28cd49feac4b554de0cd2e6c33fd3e866e12a0aea34387ef7c4be057b1778d"},
		{NVDLALike(), "c845e05339cf2fee65934111322c31e10c497d32d0fc4978639b92c8be963966"},
		{ShiDianNaoLike(), "73e5ad1d79b528379d72ef47de2c9fe9b442b49fd1cc16c0c7771f7b9d445389"},
		{EyerissLike().WithTilingSearch(), "c83b4e8d6058a83b3bb7c978be2391f7116d7d6d7c88532571a0104c4e954e57"},
	}
	for _, tc := range cases {
		t.Run(tc.c.Name, func(t *testing.T) {
			h := sha256.New()
			rng := rand.New(rand.NewSource(4242))
			for li, l := range layers {
				for bi, b := range buffers {
					for i := 0; i < 100; i++ {
						fmt.Fprintf(h, "%d %d %d %v\n", li, bi, i, tc.c.Random(rng, l, b[0], b[1]))
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("schedule stream digest = %s, want %s", got, tc.want)
			}
		})
	}
}
