package sched

import (
	"math/rand"
	"sync"

	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

// Constraint restricts the software design space. Spotlight searches the
// unconstrained space (Free); hand-designed accelerators and prior
// co-design tools search restricted spaces, which is central to the
// paper's comparison (§VII-A: "ConfuciuX and HASCO produce inefficient
// designs primarily because of their limited design spaces").
type Constraint struct {
	Name string

	// OuterUnrollChoices / InnerUnrollChoices list the dimensions the
	// schedule may spatially unroll at each level. A single-element list
	// pins the dataflow's unrolling.
	OuterUnrollChoices []workload.Dim
	InnerUnrollChoices []workload.Dim

	// FixedOuterOrder / FixedInnerOrder pin the loop orders; nil means
	// the order is free (sampled uniformly over permutations).
	FixedOuterOrder []workload.Dim
	FixedInnerOrder []workload.Dim

	// TilableDims lists the dimensions whose tiling factors are searched.
	// Dimensions not listed get heuristic greedy-fit tiles (see FitTiles).
	// nil means every dimension is searched.
	TilableDims []workload.Dim
}

// Free returns the unconstrained Spotlight software space of §IV-A2:
// all loop orders, all unroll dimensions, all divisor tilings.
func Free() Constraint {
	return Constraint{Name: "free"}
}

// allDims is the unroll choice list of an unconstrained level, shared by
// every Sampler and Neighbor call; like the Sampler, it is read-only.
var allDims = workload.AllDims[:]

// EyerissLike returns the rigid row-stationary-style dataflow attributed
// to Eyeriss in the paper: X/Y spatial unrolling with a weight-stationary
// loop order (weight dimensions outermost so filter tiles stay resident).
func EyerissLike() Constraint {
	order := []workload.Dim{workload.DimK, workload.DimC, workload.DimR, workload.DimS,
		workload.DimN, workload.DimY, workload.DimX}
	return Constraint{
		Name:               "eyeriss-like",
		OuterUnrollChoices: []workload.Dim{workload.DimY},
		InnerUnrollChoices: []workload.Dim{workload.DimX},
		FixedOuterOrder:    order,
		FixedInnerOrder:    order,
		TilableDims:        []workload.Dim{},
	}
}

// NVDLALike returns the NVDLA-style dataflow: K/C spatial unrolling with
// an output-stationary loop order (output dimensions outermost, reduction
// dimensions innermost).
func NVDLALike() Constraint {
	order := []workload.Dim{workload.DimN, workload.DimK, workload.DimX, workload.DimY,
		workload.DimC, workload.DimR, workload.DimS}
	return Constraint{
		Name:               "nvdla-like",
		OuterUnrollChoices: []workload.Dim{workload.DimK},
		InnerUnrollChoices: []workload.Dim{workload.DimC},
		FixedOuterOrder:    order,
		FixedInnerOrder:    order,
		TilableDims:        []workload.Dim{},
	}
}

// ShiDianNaoLike returns the ShiDianNao-style dataflow: output-stationary
// with X/Y spatial unrolling, the third fixed schedule ConfuciuX selects
// among.
func ShiDianNaoLike() Constraint {
	order := []workload.Dim{workload.DimN, workload.DimK, workload.DimC,
		workload.DimX, workload.DimY, workload.DimR, workload.DimS}
	return Constraint{
		Name:               "shidiannao-like",
		OuterUnrollChoices: []workload.Dim{workload.DimX},
		InnerUnrollChoices: []workload.Dim{workload.DimY},
		FixedOuterOrder:    order,
		FixedInnerOrder:    order,
		TilableDims:        []workload.Dim{},
	}
}

// MAERILike returns the flexible-dataflow space attributed to MAERI: free
// unrolling and loop orders (the reconfigurable interconnect can realize
// arbitrary mappings), with full tiling freedom. MAERI's rigidity is in
// its fixed hardware, not its software.
func MAERILike() Constraint {
	c := Free()
	c.Name = "maeri-like"
	return c
}

// FixedDataflows returns the three rigid dataflow constraints that
// ConfuciuX (and Spotlight-F) select among.
func FixedDataflows() []Constraint {
	return []Constraint{EyerissLike(), NVDLALike(), ShiDianNaoLike()}
}

// SpotlightF returns the Spotlight-F space of §VII-E: the given fixed
// dataflow's orders and unrolls, but with tiling searched only in the K
// and C dimensions.
func SpotlightF(dataflow Constraint) Constraint {
	dataflow.Name = "spotlight-f/" + dataflow.Name
	dataflow.TilableDims = []workload.Dim{workload.DimK, workload.DimC}
	return dataflow
}

// WithTilingSearch relaxes a rigid dataflow so that all tiling factors
// are searched while the loop orders and unroll dimensions stay pinned.
// This is how the hand-designed accelerators are evaluated in §VII:
// their dataflows are fixed in silicon, but mapping a layer onto them
// still involves choosing tile sizes, which daBO_SW optimizes.
func (c Constraint) WithTilingSearch() Constraint {
	c.Name += "+tiling"
	c.TilableDims = nil
	return c
}

// outerChoices returns the effective outer-unroll choices. The result
// is shared, never copied: callers only read it.
func (c Constraint) outerChoices() []workload.Dim {
	if len(c.OuterUnrollChoices) == 0 {
		return allDims
	}
	return c.OuterUnrollChoices
}

// innerChoices returns the effective inner-unroll choices, shared like
// outerChoices'.
func (c Constraint) innerChoices() []workload.Dim {
	if len(c.InnerUnrollChoices) == 0 {
		return allDims
	}
	return c.InnerUnrollChoices
}

// tilable reports whether dimension d's tiling is searched under c.
func (c Constraint) tilable(d workload.Dim) bool {
	if c.TilableDims == nil {
		return true
	}
	for _, t := range c.TilableDims {
		if t == d {
			return true
		}
	}
	return false
}

// Random samples a uniformly random schedule from the constrained space.
// Heuristically tiled (non-searchable) dimensions are greedily fit to the
// provided per-PE register file and L2 scratchpad capacities so that
// rigid-dataflow baselines produce mostly valid schedules, mirroring how
// hand-designed accelerators ship with working tilings. Searchable
// dimensions draw independent divisor pairs, which may or may not fit —
// those are the invalid regions the cost model rejects.
//
// Random builds a Sampler for the one draw; callers drawing many
// schedules for the same layer and buffers should build the Sampler once.
func (c Constraint) Random(rng *rand.Rand, l workload.Layer, rfBytesPerPE, l2Bytes int64) Schedule {
	return c.Sampler(l, rfBytesPerPE, l2Bytes).Random(rng)
}

// Sampler draws random schedules from one constraint for one layer and
// one pair of buffer capacities. Everything that depends only on those
// inputs — the unroll choices, the heuristic FitTiles tiles and their
// trip counts, and the tiling table of each searchable dimension's
// extent — is fixed at construction, so a draw takes no lock and
// writes nothing shared. A Sampler is immutable between constructions
// (Constraint.SamplerTo rebuilds one in place) and safe for concurrent
// use with distinct RNGs.
type Sampler struct {
	outer, inner           []workload.Dim
	fixedOuter, fixedInner []workload.Dim
	// t1, t2 are the starting tiles and n1, n2 their trip counts:
	// FitTiles' heuristic tiles when some dimensions are not searched,
	// zero otherwise (every dimension is then overwritten by a draw).
	t1, t2, n1, n2 [workload.NumDims]int
	// tiles[d] is the tiling table of dimension d's extent, nil when d
	// is not searched.
	tiles [workload.NumDims]*tileTable
}

// tileTable is the tiling table of one extent n: one choice per
// divisor of n, in increasing order.
type tileTable struct {
	choices []tileChoice
}

// tileChoice is one tile of a tileTable's extent n: the divisor tile,
// its trip count n/tile, and the table of tile itself, whose choices
// are the RF tiles under L2 tile tile.
type tileChoice struct {
	tile, trips int
	sub         *tileTable
}

// tileTableOf returns the tiling table of extent n. Tables depend only
// on n, so they are memoized process-wide like Divisors and shared by
// every Sampler; callers only read them. Only Sampler construction
// looks them up, so one plain mutex serves.
func tileTableOf(n int) *tileTable {
	tileMu.Lock()
	defer tileMu.Unlock()
	return tileTableLocked(n)
}

// tileTableLocked is tileTableOf with tileMu held. It publishes n's
// table before filling its choices, so the last choice's table is the
// table itself.
func tileTableLocked(n int) *tileTable {
	if t, ok := tileTables[n]; ok {
		return t
	}
	divs := divisors(n)
	t := &tileTable{choices: make([]tileChoice, len(divs))}
	tileTables[n] = t
	for j, d := range divs {
		t.choices[j] = tileChoice{tile: d, trips: n / d, sub: tileTableLocked(d)}
	}
	return t
}

var (
	tileMu     sync.Mutex
	tileTables = map[int]*tileTable{}
)

// Sampler precomputes c's sampling tables for layer l under the given
// per-PE register-file and L2 capacities. Once l's extents have been
// tabled, it allocates only the Sampler itself.
func (c Constraint) Sampler(l workload.Layer, rfBytesPerPE, l2Bytes int64) *Sampler {
	sp := new(Sampler)
	c.SamplerTo(sp, l, rfBytesPerPE, l2Bytes)
	return sp
}

// SamplerTo is Sampler into a caller-owned Sampler: it overwrites every
// field of sp, so sp draws exactly what a new Sampler would, and it
// allocates nothing once l's extents have been tabled. No draw from sp
// may run concurrently with it.
func (c Constraint) SamplerTo(sp *Sampler, l workload.Layer, rfBytesPerPE, l2Bytes int64) {
	*sp = Sampler{
		outer:      c.outerChoices(),
		inner:      c.innerChoices(),
		fixedOuter: c.FixedOuterOrder,
		fixedInner: c.FixedInnerOrder,
	}
	if c.TilableDims != nil {
		sp.t1, sp.t2 = FitTiles(l, rfBytesPerPE, l2Bytes)
		for i, d := range workload.AllDims {
			sp.n2[i], sp.n1[i] = l.Size(d)/sp.t2[i], sp.t2[i]/sp.t1[i]
		}
	}
	for i, d := range workload.AllDims {
		if c.tilable(d) {
			sp.tiles[i] = tileTableOf(l.Size(d))
		}
	}
}

// Random draws one schedule; see RandomTo.
func (sp *Sampler) Random(rng *rand.Rand) Schedule {
	var s Schedule
	sp.RandomTo(rng, &s)
	return s
}

// RandomTo draws one schedule into s, overwriting every field: TilesTo,
// then OrdersTo. Those calls, in that order, define the sampling stream
// every search over this space consumes.
func (sp *Sampler) RandomTo(rng *rand.Rand, s *Schedule) {
	sp.TilesTo(rng, s, nil, nil)
	sp.OrdersTo(rng, s)
}

// TilesTo draws everything of a schedule but its loop orders into s:
// the two unroll dimensions, then an L2 and an RF tile per searchable
// dimension in canonical dimension order. It leaves s's orders as they
// were; OrdersTo draws them, independently of the tiles, so a caller
// may draw orders only for the schedules it keeps. With non-nil n2 and
// n1 it also writes the schedule's trip counts, n2[d] = Size(d)/T2[d]
// and n1[d] = T2[d]/T1[d] (what TripCounts returns), read from the
// tables the tiles were drawn from rather than divided. Every pick is
// xrand.IntN, so a one-element list draws nothing.
func (sp *Sampler) TilesTo(rng *rand.Rand, s *Schedule, n2, n1 *[workload.NumDims]int) {
	s.OuterUnroll = sp.outer[xrand.IntN(rng, len(sp.outer))]
	s.InnerUnroll = sp.inner[xrand.IntN(rng, len(sp.inner))]
	s.T1, s.T2 = sp.t1, sp.t2
	trips := n2 != nil
	if trips {
		*n1, *n2 = sp.n1, sp.n2
	}
	for i, t := range &sp.tiles {
		if t == nil {
			continue
		}
		l2 := &t.choices[xrand.IntN(rng, len(t.choices))]
		rf := &l2.sub.choices[xrand.IntN(rng, len(l2.sub.choices))]
		s.T2[i], s.T1[i] = l2.tile, rf.tile
		if trips {
			n2[i], n1[i] = l2.trips, rf.trips
		}
	}
}

// OrdersTo writes s's two loop orders: the constraint's fixed order, or
// a uniform permutation of the seven dimensions (outer, then inner).
func (sp *Sampler) OrdersTo(rng *rand.Rand, s *Schedule) {
	orderTo(&s.OuterOrder, sp.fixedOuter, rng)
	orderTo(&s.InnerOrder, sp.fixedInner, rng)
}

// orderTo writes the fixed order into out if given, else a random
// permutation of the seven dimensions.
func orderTo(out *[workload.NumDims]workload.Dim, fixed []workload.Dim, rng *rand.Rand) {
	if len(fixed) == workload.NumDims {
		copy(out[:], fixed)
		return
	}
	*out = workload.AllDims
	xrand.Shuffle(rng, out[:])
}

// Neighbor returns a schedule one mutation away from s within the
// constraint: it perturbs one of the searchable components (a tiling
// factor, an unroll dimension, or a swap in a free loop order). Used by
// the genetic-algorithm baseline.
func (c Constraint) Neighbor(rng *rand.Rand, s Schedule, l workload.Layer) Schedule {
	out := s
	switch rng.Intn(4) {
	case 0: // re-tile one searchable dimension
		var idx []int
		for i, d := range workload.AllDims {
			if c.tilable(d) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return out
		}
		i := idx[rng.Intn(len(idx))]
		size := l.Size(workload.AllDims[i])
		divs := Divisors(size)
		out.T2[i] = divs[rng.Intn(len(divs))]
		sub := Divisors(out.T2[i])
		out.T1[i] = sub[rng.Intn(len(sub))]
	case 1: // re-pick an unroll dimension
		if rng.Intn(2) == 0 {
			ch := c.outerChoices()
			out.OuterUnroll = ch[rng.Intn(len(ch))]
		} else {
			ch := c.innerChoices()
			out.InnerUnroll = ch[rng.Intn(len(ch))]
		}
	case 2: // swap two loops in the outer order, if free
		if c.FixedOuterOrder == nil {
			i, j := rng.Intn(workload.NumDims), rng.Intn(workload.NumDims)
			out.OuterOrder[i], out.OuterOrder[j] = out.OuterOrder[j], out.OuterOrder[i]
		}
	case 3: // swap two loops in the inner order, if free
		if c.FixedInnerOrder == nil {
			i, j := rng.Intn(workload.NumDims), rng.Intn(workload.NumDims)
			out.InnerOrder[i], out.InnerOrder[j] = out.InnerOrder[j], out.InnerOrder[i]
		}
	}
	return out
}

// Crossover mixes two schedules dimension-wise (uniform crossover on
// tiles, coin flips on orders and unrolls). Used by the GA baseline.
func Crossover(rng *rand.Rand, a, b Schedule) Schedule {
	out := a
	for i := range workload.AllDims {
		if rng.Intn(2) == 0 {
			out.T2[i], out.T1[i] = b.T2[i], b.T1[i]
		}
	}
	if rng.Intn(2) == 0 {
		out.OuterOrder = b.OuterOrder
	}
	if rng.Intn(2) == 0 {
		out.InnerOrder = b.InnerOrder
	}
	if rng.Intn(2) == 0 {
		out.OuterUnroll = b.OuterUnroll
	}
	if rng.Intn(2) == 0 {
		out.InnerUnroll = b.InnerUnroll
	}
	return out
}

// FitTiles greedily grows per-dimension tiles, innermost level first,
// while the working set fits the given per-PE register file and L2
// scratchpad capacities (in bytes, 8-bit elements). It returns maximal
// divisor tiles under the capacity bound, visiting dimensions round-robin
// so no dimension starves. The resulting schedule is conservative — it is
// how a designer would hand-tile a rigid dataflow.
func FitTiles(l workload.Layer, rfBytesPerPE, l2Bytes int64) (t1, t2 [workload.NumDims]int) {
	for i := range workload.AllDims {
		t1[i], t2[i] = 1, 1
	}
	growLevel(l, &t1, nil, rfBytesPerPE)
	// L2 tiles start from the RF tiles (T1 | T2 invariant).
	t2 = t1
	growLevel(l, &t2, &t1, l2Bytes)
	return t1, t2
}

// growLevel grows tiles round-robin: each pass tries to bump every
// dimension's tile to the next admissible divisor while the footprint
// stays within budget. lower, when non-nil, is the lower-level tiling
// that must keep dividing the grown tiles, so only divisors that are
// multiples of it are admissible.
func growLevel(l workload.Layer, tiles *[workload.NumDims]int, lower *[workload.NumDims]int, budget int64) {
	for {
		grew := false
		for i, d := range workload.AllDims {
			mult := 1
			if lower != nil {
				mult = lower[i]
			}
			next, ok := nextDivisor(l.Size(d), tiles[i], mult)
			if !ok {
				continue
			}
			old := tiles[i]
			tiles[i] = next
			if TileFootprint(l, *tiles) > budget {
				tiles[i] = old
				continue
			}
			grew = true
		}
		if !grew {
			return
		}
	}
}

// nextDivisor returns the smallest divisor of n strictly greater than cur
// that is a multiple of mult.
func nextDivisor(n, cur, mult int) (int, bool) {
	for _, d := range Divisors(n) {
		if d > cur && d%mult == 0 {
			return d, true
		}
	}
	return 0, false
}
