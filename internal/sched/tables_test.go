package sched

import (
	"sync"
	"testing"

	"spotlight/internal/workload"
)

// allConstraints are the software spaces the searches draw from: the
// free space, the hand-designed dataflows, MAERI's, and Spotlight-F's
// K/C-tiled fixed dataflows (the rest FitTiles-tiled).
func allConstraints() []Constraint {
	cs := []Constraint{Free(), EyerissLike(), NVDLALike(), ShiDianNaoLike(), MAERILike()}
	for _, df := range FixedDataflows() {
		cs = append(cs, SpotlightF(df), df.WithTilingSearch())
	}
	return cs
}

// TestRandomTripsMatchDivision: the trip counts TilesTo reads off its
// tables are the divisions TripCounts makes, and drawing them leaves
// the schedule and the generator exactly as drawing without them does.
func TestRandomTripsMatchDivision(t *testing.T) {
	var layers []workload.Layer
	for _, m := range []workload.Model{workload.ResNet50(), workload.MobileNetV2(), workload.Transformer()} {
		layers = append(layers, m.Layers...)
	}
	for _, c := range allConstraints() {
		for li, l := range layers {
			sp := c.Sampler(l, 64, 32<<10)
			r1, r2 := twins(int64(li), li%2 == 0)
			for i := 0; i < 16; i++ {
				var s, want Schedule
				var n2, n1 [workload.NumDims]int
				sp.TilesTo(r1, &s, &n2, &n1)
				sp.OrdersTo(r1, &s)
				sp.RandomTo(r2, &want)
				if s != want {
					t.Fatalf("%s %s: TilesTo with trips drew %v, RandomTo %v", c.Name, l.Name, s, want)
				}
				sizes := l.Sizes()
				w2, w1, ok := s.TripCounts(&sizes)
				if !ok || n2 != w2 || n1 != w1 {
					t.Fatalf("%s %s: trips %v/%v, divisions give %v/%v (valid %v)", c.Name, l.Name, n2, n1, w2, w1, ok)
				}
			}
			if a, b := r1.Int63(), r2.Int63(); a != b {
				t.Fatalf("%s %s: generators diverged", c.Name, l.Name)
			}
		}
	}
}

// TestTileTablesShared: a tiling table is built once per extent, and
// the RF choices under L2 tile d are the table of d itself.
func TestTileTablesShared(t *testing.T) {
	for _, n := range []int{1, 7, 56, 224, 3072} {
		tab := tileTableOf(n)
		if tileTableOf(n) != tab {
			t.Fatalf("extent %d: two tables", n)
		}
		divs := Divisors(n)
		if len(tab.choices) != len(divs) {
			t.Fatalf("extent %d: %d choices for %d divisors", n, len(tab.choices), len(divs))
		}
		for j, c := range tab.choices {
			if c.tile != divs[j] || c.trips*c.tile != n {
				t.Fatalf("extent %d: choice %d is tile %d, trips %d; want tile %d", n, j, c.tile, c.trips, divs[j])
			}
			if c.sub != tileTableOf(c.tile) {
				t.Fatalf("extent %d: sub-table of %d is not the table of %d", n, c.tile, c.tile)
			}
		}
	}
}

// TestSamplerAllocatesOnlyItself: once a layer's extents are tabled,
// building its Sampler allocates the Sampler and nothing else, whatever
// the constraint.
func TestSamplerAllocatesOnlyItself(t *testing.T) {
	l := workload.ResNet50().Layers[6]
	var sink *Sampler
	for _, c := range allConstraints() {
		c.Sampler(l, 512, 128<<10)
		if n := testing.AllocsPerRun(100, func() { sink = c.Sampler(l, 512, 128<<10) }); n != 1 {
			t.Errorf("%s: Sampler allocated %v objects, want 1", c.Name, n)
		}
	}
	_ = sink
}

// TestTileTablesConcurrent: goroutines tabling the same extents at once
// (new ones, on the first run in a process) all get the one table per
// extent, and draw from it.
func TestTileTablesConcurrent(t *testing.T) {
	extents := []int{5040, 2520, 720, 1440, 9973}
	const workers = 4
	got := make([][]*tileTable, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := workload.Conv("c", 1, extents[w%len(extents)], extents[(w+1)%len(extents)], 1, 1, 1, 1)
			rng, _ := twins(int64(w), false)
			if s := Free().Sampler(l, 64, 32<<10).Random(rng); s.Validate(l) != nil {
				t.Errorf("worker %d drew an invalid schedule %v", w, s)
			}
			for i := range extents {
				got[w] = append(got[w], tileTableOf(extents[(i+w)%len(extents)]))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, tab := range got[w] {
			if n := extents[(i+w)%len(extents)]; tab != tileTableOf(n) {
				t.Errorf("worker %d: extent %d has two tables", w, n)
			}
		}
	}
}

// TestSamplerToMatchesSampler: one Sampler rebuilt in place by
// SamplerTo, for every constraint and layer in turn, draws the same
// schedules and trip counts as a new Sampler, whatever the previous
// constraint left in it (heuristic tiles, tables of other dimensions).
func TestSamplerToMatchesSampler(t *testing.T) {
	var layers []workload.Layer
	for _, m := range []workload.Model{workload.ResNet50(), workload.MobileNetV2()} {
		layers = append(layers, m.Layers...)
	}
	var reused Sampler
	for li, l := range layers {
		for ci, c := range allConstraints() {
			rf, l2 := int64(16<<(li%4)), int64(8<<(10+ci%5))
			c.SamplerTo(&reused, l, rf, l2)
			fresh := c.Sampler(l, rf, l2)
			r1, r2 := twins(int64(li*100+ci), ci%2 == 0)
			for i := 0; i < 8; i++ {
				var s, want Schedule
				var n2, n1, wn2, wn1 [workload.NumDims]int
				reused.TilesTo(r1, &s, &n2, &n1)
				reused.OrdersTo(r1, &s)
				fresh.TilesTo(r2, &want, &wn2, &wn1)
				fresh.OrdersTo(r2, &want)
				if s != want || n2 != wn2 || n1 != wn1 {
					t.Fatalf("%s %s: rebuilt sampler drew %v, a new one %v", c.Name, l.Name, s, want)
				}
			}
		}
	}
}
