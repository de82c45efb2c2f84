package sched

import (
	"fmt"

	"spotlight/internal/workload"
)

// This file is the loop-nest geometry of Figure 2 that every cost model
// shares: which tensor each loop dimension selects a tile of, how many
// bytes a tile holds, how many distinct tiles a level steps through,
// and how the two unrolled L2-level loops fold over the PE array. The
// models differ only in what they charge for that geometry.

// Tensor identifies one of the three CONV operands.
type Tensor int

// The three CONV tensors. NumTensors sizes per-tensor arrays.
const (
	TensorInput Tensor = iota
	TensorWeight
	TensorOutput
	NumTensors = 3
)

var tensorNames = [NumTensors]string{"input", "weight", "output"}

// String returns the tensor's name.
func (t Tensor) String() string {
	if t < 0 || int(t) >= NumTensors {
		return fmt.Sprintf("Tensor(%d)", int(t))
	}
	return tensorNames[t]
}

// deps[t][d] reports whether tensor t's tile changes as dimension d's
// loop steps.
var deps = [NumTensors][workload.NumDims]bool{
	TensorInput:  dimSet(workload.DimN, workload.DimC, workload.DimX, workload.DimY, workload.DimR, workload.DimS),
	TensorWeight: dimSet(workload.DimK, workload.DimC, workload.DimR, workload.DimS),
	TensorOutput: dimSet(workload.DimN, workload.DimK, workload.DimX, workload.DimY),
}

func dimSet(ds ...workload.Dim) [workload.NumDims]bool {
	var s [workload.NumDims]bool
	for _, d := range ds {
		s[d] = true
	}
	return s
}

// Depends reports whether d is in t's dependence set: inputs depend on
// N, C, X, Y, R and S, weights on K, C, R and S, outputs on N, K, X
// and Y.
func (t Tensor) Depends(d workload.Dim) bool { return deps[t][d] }

// Footprint is the bytes one tile of each tensor holds, indexed by
// Tensor.
type Footprint [NumTensors]int64

// Total returns the bytes of buffer the three tiles need together.
func (f *Footprint) Total() int64 { return f[TensorInput] + f[TensorWeight] + f[TensorOutput] }

// TileBytes returns the footprint of the per-dimension tile sizes t at
// 8-bit precision. An input tile includes its halo:
// ((X−1)·stride + R) × ((Y−1)·stride + S) pixels per (N, C).
func TileBytes(l *workload.Layer, t *[workload.NumDims]int) Footprint {
	n, k, c := int64(t[workload.DimN]), int64(t[workload.DimK]), int64(t[workload.DimC])
	r, s := int64(t[workload.DimR]), int64(t[workload.DimS])
	x, y := int64(t[workload.DimX]), int64(t[workload.DimY])
	return Footprint{
		TensorInput:  n * c * ((x-1)*int64(l.StrideX) + r) * ((y-1)*int64(l.StrideY) + s),
		TensorWeight: k * c * r * s,
		TensorOutput: n * k * x * y,
	}
}

// TileFootprint returns the bytes of buffer one tile of each tensor
// needs together: TileBytes' total.
func TileFootprint(l workload.Layer, t [workload.NumDims]int) int64 {
	f := TileBytes(&l, &t)
	return f.Total()
}

// DistinctTiles returns how many distinct tiles of t a loop level with
// the given trip counts steps through: the product of the trips over
// t's dependent dimensions.
func (t Tensor) DistinctTiles(trips [workload.NumDims]int) int64 {
	n := int64(1)
	for d, dep := range &deps[t] {
		if dep {
			n *= int64(trips[d])
		}
	}
	return n
}

// ArrayFold is how a schedule's two unrolled L2-level loops spread over
// an h×w PE array: the loop over the outer-unrolled dimension uo steps
// across the rows, the loop over the inner-unrolled dimension ui across
// the columns, and when uo == ui that one loop spreads over all h·w
// PEs. A loop longer than its lanes folds: it runs ⌈trips/lanes⌉ times
// in time.
type ArrayFold struct {
	// Folds are the temporal folds. When uo == ui, Folds[0] is
	// ⌈n1[uo]/(h·w)⌉ and Folds[1] is 0; otherwise Folds[0] is
	// ⌈n1[uo]/h⌉ (rows) and Folds[1] is ⌈n1[ui]/w⌉ (columns).
	Folds [2]int

	uo, ui workload.Dim
	trips  [2]int // n1[uo], n1[ui]
	h, w   int
}

// Fold sets f to the fold of the L2-level loops over uo and ui, whose
// trip counts are in n1, over an h×w array. It computes only the folds;
// Lanes and Utilization derive the rest when asked. Fold writes f in
// place, so a fold kept in a larger struct is not built and copied.
func (f *ArrayFold) Fold(uo, ui workload.Dim, n1 *[workload.NumDims]int, h, w int) {
	f.uo, f.ui, f.h, f.w = uo, ui, h, w
	f.trips[0], f.trips[1] = n1[uo], n1[ui]
	if uo == ui {
		f.Folds[0], f.Folds[1] = ceilDiv(f.trips[0], h*w), 0
		return
	}
	f.Folds[0], f.Folds[1] = ceilDiv(f.trips[0], h), ceilDiv(f.trips[1], w)
}

// Temporal replaces each unrolled loop's trips in n1 by its folds,
// turning the L2-level trip counts into those every PE steps through in
// time.
func (f *ArrayFold) Temporal(n1 *[workload.NumDims]int) {
	n1[f.uo] = f.Folds[0]
	if f.uo != f.ui {
		n1[f.ui] = f.Folds[1]
	}
}

// Lanes returns the active rows and columns: those the unrolled loops
// reach in their widest fold. When uo == ui the loop fills whole rows
// first.
func (f *ArrayFold) Lanes() Lanes {
	l := Lanes{uo: f.uo, ui: f.ui}
	if f.uo == f.ui {
		total := min(f.h*f.w, f.trips[0])
		l.Cols = min(f.w, total)
		l.Rows = min(f.h, ceilDiv(total, l.Cols))
	} else {
		l.Rows, l.Cols = min(f.h, f.trips[0]), min(f.w, f.trips[1])
	}
	return l
}

// Lanes is the active extent of the PE array under an ArrayFold.
type Lanes struct {
	Rows, Cols int
	uo, ui     workload.Dim
}

// Copies returns how many spatially distinct copies of t's tile one
// temporal fill delivers: a tensor that depends on an unrolled
// dimension needs one copy per active lane along it, and an independent
// one is multicast (one copy serves the whole row or column). When
// uo == ui a dependent tensor needs one copy per active PE.
func (l Lanes) Copies(t Tensor) int64 {
	c := int64(1)
	if t.Depends(l.uo) {
		c *= int64(l.Rows)
	}
	if t.Depends(l.ui) {
		c *= int64(l.Cols)
	}
	return c
}

// Utilization returns the spatial utilization: the fraction of the h×w
// PEs doing useful work, averaged over the folds, so a partial last
// fold counts as waste.
func (f *ArrayFold) Utilization() float64 {
	if f.uo == f.ui {
		return float64(f.trips[0]) / (float64(f.Folds[0]) * float64(f.h*f.w))
	}
	return (float64(f.trips[0]) / (float64(f.Folds[0]) * float64(f.h))) *
		(float64(f.trips[1]) / (float64(f.Folds[1]) * float64(f.w)))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
