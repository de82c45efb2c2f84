// Package sched defines the software half of the co-design space: the
// loop transformations of §IV-A2 of the paper (loop tiling with
// independent per-level factors, loop reordering of both tile levels, and
// spatial unrolling of one dimension per level), plus the constrained
// schedule spaces used by the baselines (Eyeriss-like, NVDLA-like,
// ShiDianNao-like dataflows and the pruned spaces of ConfuciuX, HASCO and
// Spotlight-F).
//
// A Schedule describes how the 7-level CONV loop of Figure 1 executes on
// a two-level accelerator (global L2 scratchpad + per-PE register file):
// each dimension d is split into an L2 tile T2[d] and an RF tile T1[d]
// with T1[d] | T2[d] | Size(d); the DRAM-level loops (stepping T2 tiles)
// run in OuterOrder; the L2-level loops (stepping T1 subtiles) run in
// InnerOrder; OuterUnroll distributes DRAM-level tiles across the rows of
// the PE array, and InnerUnroll distributes L2-level subtiles across the
// columns.
package sched

import (
	"fmt"
	"sync"

	"spotlight/internal/workload"
)

// Schedule is one point in the software design space for a single layer.
type Schedule struct {
	T2          [workload.NumDims]int          // L2 tile size per dimension
	T1          [workload.NumDims]int          // RF tile size per dimension
	OuterOrder  [workload.NumDims]workload.Dim // DRAM-level loop order, outermost first
	InnerOrder  [workload.NumDims]workload.Dim // L2-level loop order, outermost first
	OuterUnroll workload.Dim                   // dimension unrolled across PE rows
	InnerUnroll workload.Dim                   // dimension unrolled across PE columns
}

// Validate checks the structural invariants of the schedule against the
// layer: positive tiles, divisibility at both levels, and both orders
// being permutations of the seven dimensions. Buffer-capacity validity is
// the cost model's concern, not Validate's — capacity depends on the
// hardware configuration.
func (s Schedule) Validate(l workload.Layer) error {
	for i, d := range workload.AllDims {
		size := l.Size(d)
		t2, t1 := s.T2[i], s.T1[i]
		if t1 <= 0 || t2 <= 0 {
			return fmt.Errorf("sched: non-positive tile for %s: T2=%d T1=%d", d, t2, t1)
		}
		if size%t2 != 0 {
			return fmt.Errorf("sched: T2[%s]=%d does not divide size %d", d, t2, size)
		}
		if t2%t1 != 0 {
			return fmt.Errorf("sched: T1[%s]=%d does not divide T2 %d", d, t1, t2)
		}
	}
	if !isPermutation(s.OuterOrder) {
		return fmt.Errorf("sched: outer order %v is not a permutation", s.OuterOrder)
	}
	if !isPermutation(s.InnerOrder) {
		return fmt.Errorf("sched: inner order %v is not a permutation", s.InnerOrder)
	}
	if s.OuterUnroll < 0 || int(s.OuterUnroll) >= workload.NumDims ||
		s.InnerUnroll < 0 || int(s.InnerUnroll) >= workload.NumDims {
		return fmt.Errorf("sched: unroll dims out of range: %v/%v", s.OuterUnroll, s.InnerUnroll)
	}
	return nil
}

func isPermutation(order [workload.NumDims]workload.Dim) bool {
	var seen [workload.NumDims]bool
	for _, d := range order {
		if d < 0 || int(d) >= workload.NumDims || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// OuterTrips returns the DRAM-level trip count for each dimension:
// Size(d) / T2[d].
func (s Schedule) OuterTrips(l workload.Layer) [workload.NumDims]int {
	var n [workload.NumDims]int
	for i, d := range workload.AllDims {
		n[i] = l.Size(d) / s.T2[i]
	}
	return n
}

// InnerTrips returns the L2-level trip count for each dimension:
// T2[d] / T1[d].
func (s Schedule) InnerTrips(l workload.Layer) [workload.NumDims]int {
	var n [workload.NumDims]int
	for i := range workload.AllDims {
		n[i] = s.T2[i] / s.T1[i]
	}
	return n
}

// TripCounts fuses Validate, OuterTrips, and InnerTrips into one
// allocation-free pass for batched evaluation: given the layer's
// dimension extents (as returned by workload.Layer.Sizes, precomputed
// once per batch), it reports the DRAM-level and L2-level trip counts
// and whether the schedule is structurally valid. ok is false exactly
// when Validate would return an error for a layer with these extents;
// callers needing the reason re-run Validate, off the hot path. Each
// dimension costs two fused div/mod pairs instead of Validate's
// separate mod checks followed by OuterTrips/InnerTrips divisions.
func (s *Schedule) TripCounts(sizes *[workload.NumDims]int) (n2, n1 [workload.NumDims]int, ok bool) {
	for i := range sizes {
		t2, t1 := s.T2[i], s.T1[i]
		if t1 <= 0 || t2 <= 0 {
			return n2, n1, false
		}
		q2 := sizes[i] / t2
		if q2*t2 != sizes[i] {
			return n2, n1, false
		}
		q1 := t2 / t1
		if q1*t1 != t2 {
			return n2, n1, false
		}
		n2[i], n1[i] = q2, q1
	}
	if !isPermutation(s.OuterOrder) || !isPermutation(s.InnerOrder) {
		return n2, n1, false
	}
	if s.OuterUnroll < 0 || int(s.OuterUnroll) >= workload.NumDims ||
		s.InnerUnroll < 0 || int(s.InnerUnroll) >= workload.NumDims {
		return n2, n1, false
	}
	return n2, n1, true
}

// String renders the schedule compactly for logs and reports.
func (s Schedule) String() string {
	return fmt.Sprintf("T2=%v T1=%v outer=%v inner=%v unroll=%v/%v",
		s.T2, s.T1, s.OuterOrder, s.InnerOrder, s.OuterUnroll, s.InnerUnroll)
}

// Divisors returns the positive divisors of n in increasing order. The
// result is memoized (layer dimensions repeat constantly during search)
// and must not be mutated by the caller.
func Divisors(n int) []int {
	if n <= 0 {
		return nil
	}
	divisorMu.RLock()
	cached, ok := divisorCache[n]
	divisorMu.RUnlock()
	if ok {
		return cached
	}
	divs := divisors(n)
	divisorMu.Lock()
	divisorCache[n] = divs
	divisorMu.Unlock()
	return divs
}

// divisors is Divisors without the memo: the tiling tables, which are
// a memo of their own, build from it.
func divisors(n int) []int {
	var small, large []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			small = append(small, d)
			if d != n/d {
				large = append(large, n/d)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

var (
	divisorMu    sync.RWMutex
	divisorCache = map[int][]int{}
)

// CanonicalOrder is the identity loop order [N K C R S X Y].
func CanonicalOrder() [workload.NumDims]workload.Dim {
	return workload.AllDims
}

// SpaceSize estimates the number of software design points for the layer
// under the unconstrained space: per-level tiling choices × (7!)² loop
// orders × 7² unroll choices. The result is a float64 because the space
// is astronomically large (O(10^18) for mid ResNet-50 layers, matching
// §I of the paper).
func SpaceSize(l workload.Layer) float64 {
	size := 1.0
	for _, d := range workload.AllDims {
		// Tiling choices per dim: pairs (T1, T2) with T1 | T2 | size.
		var pairs int
		for _, t2 := range Divisors(l.Size(d)) {
			pairs += len(Divisors(t2))
		}
		size *= float64(pairs)
	}
	const fact7 = 5040
	size *= fact7 * fact7 // both loop orders
	size *= 49            // unroll dimension choices
	return size
}
