package sched

import (
	"math/rand"
	"testing"

	"spotlight/internal/workload"
)

// checkRecordDraws draws n schedules from sp twice, by Skip and Decode
// from r1 and by RandomTo from r2, and fails unless every schedule and
// the generator state after each draw agree. It returns how many
// records Decode rebuilt from their words and how many Skip replayed.
func checkRecordDraws(t *testing.T, label string, sp *Sampler, r1, r2 *rand.Rand, n int) (decoded, replayed int) {
	t.Helper()
	rc := NewRecorder()
	var rec Record
	for i := 0; i < n; i++ {
		var got, want Schedule
		rc.Skip(sp, r1, &rec)
		rc.Decode(sp, &rec, &got)
		sp.RandomTo(r2, &want)
		if got != want {
			t.Fatalf("%s draw %d (replayed %v): Skip+Decode drew %v, RandomTo %v", label, i, rec.exact, got, want)
		}
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("%s draw %d (replayed %v): generator state diverged", label, i, rec.exact)
		}
		if rec.exact {
			replayed++
		} else {
			decoded++
		}
	}
	return decoded, replayed
}

// TestRecordDecodeMatchesRandom: recording a draw and decoding it gives
// RandomTo's schedule and leaves the generator where RandomTo leaves
// it, for every constraint, over plain sources and sources that force
// each rejection loop. The forcing sources reach both paths: words
// Decode rebuilds and flagged draws Skip replays.
func TestRecordDecodeMatchesRandom(t *testing.T) {
	var layers []workload.Layer
	for _, m := range []workload.Model{workload.ResNet50(), workload.MobileNetV2(), workload.Transformer()} {
		layers = append(layers, m.Layers...)
	}
	for _, c := range allConstraints() {
		var decoded, replayed int
		for li, l := range layers {
			sp := c.Sampler(l, 64, 32<<10)
			for _, edgy := range []bool{false, true} {
				r1, r2 := twins(int64(li), edgy)
				d, r := checkRecordDraws(t, c.Name+" "+l.Name, sp, r1, r2, 16)
				decoded += d
				replayed += r
			}
		}
		if decoded == 0 || replayed == 0 {
			t.Errorf("%s: %d draws decoded, %d replayed; want both paths taken", c.Name, decoded, replayed)
		}
	}
}

// TestRecordDecodeAtThreshold: values at the sampler's threshold are
// decoded, values one above it are replayed, and both give RandomTo's
// draws. The script's length is prime to every nraw, so each value
// reaches every word position, and its flagged values sit together, so
// most draws miss them.
func TestRecordDecodeAtThreshold(t *testing.T) {
	l := workload.ResNet50().Layers[6]
	for _, c := range allConstraints() {
		sp := c.Sampler(l, 512, 128<<10)
		script := make([]int64, 101)
		for i := range script {
			script[i] = int64(sp.wordMax) << 31
			if i%2 == 1 {
				script[i] = int64(i*7919+1) << 31
			}
		}
		script[0], script[1], script[2] = int64(sp.wordMax+1)<<31, 0, 1<<63-1
		r1, r2 := rand.New(&scriptSource{vals: script}), rand.New(&scriptSource{vals: script})
		decoded, replayed := checkRecordDraws(t, c.Name, sp, r1, r2, 200)
		if decoded == 0 || replayed == 0 {
			t.Errorf("%s: %d draws decoded, %d replayed; want both paths taken", c.Name, decoded, replayed)
		}
	}
}

// TestRecordAllocatesNothing: a reused Record, once it has replayed a
// flagged draw, makes Skip and Decode allocation-free on both paths.
func TestRecordAllocatesNothing(t *testing.T) {
	sp := Free().Sampler(workload.ResNet50().Layers[6], 512, 128<<10)
	rng, _ := twins(3, true)
	rc := NewRecorder()
	var rec Record
	var s Schedule
	for !rec.exact {
		rc.Skip(sp, rng, &rec)
	}
	if n := testing.AllocsPerRun(100, func() {
		rc.Skip(sp, rng, &rec)
		rc.Decode(sp, &rec, &s)
	}); n != 0 {
		t.Errorf("Skip+Decode allocated %v objects per draw, want 0", n)
	}
}
