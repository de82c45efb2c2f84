package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

// TestConstraintRandomGolden pins the exact schedules Constraint.Random
// draws at a fixed seed for every constraint family the searches use.
// The constants were recorded when the sampler moved to xrand's
// bounded draws over the PCG stream.
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
		{Free(), "b1a5d15c500caf115017652cf04b6fe2826c7df33e6d61f98773541b963f75ae"},
		{SpotlightF(EyerissLike()), "22fe028392d13cf5d96278179677b2356be9bacf0332f1d765f1f3cb397d5623"},
		{SpotlightF(NVDLALike()), "5457745afb5240a80111b1e49afdb3d2373ef3a09b7051a0f5c367a8ca943287"},
		{SpotlightF(ShiDianNaoLike()), "712690f04f3393dc7bc94b68484507bdf96be04ae77f41996a5caa22417b8565"},
		{EyerissLike(), "5e28cd49feac4b554de0cd2e6c33fd3e866e12a0aea34387ef7c4be057b1778d"},
		{NVDLALike(), "c845e05339cf2fee65934111322c31e10c497d32d0fc4978639b92c8be963966"},
		{ShiDianNaoLike(), "73e5ad1d79b528379d72ef47de2c9fe9b442b49fd1cc16c0c7771f7b9d445389"},
		{EyerissLike().WithTilingSearch(), "d504d21e332f251e46480e7e75b01539080664fb8a3a1961d18a8a2f5beec0f2"},
	}
	for _, tc := range cases {
		t.Run(tc.c.Name, func(t *testing.T) {
			h := sha256.New()
			rng := xrand.New(4242)
			for li, l := range layers {
				for bi, b := range buffers {
					for i := 0; i < 100; i++ {
						fmt.Fprintf(h, "%d %d %d %v\n", li, bi, i, tc.c.Random(rng.Rand, l, b[0], b[1]))
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("schedule stream digest = %s, want %s", got, tc.want)
			}
		})
	}
}
