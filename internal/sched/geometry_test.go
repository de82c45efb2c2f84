package sched

import (
	"testing"

	"spotlight/internal/workload"
)

func TestTensorString(t *testing.T) {
	if TensorInput.String() != "input" || TensorWeight.String() != "weight" ||
		TensorOutput.String() != "output" {
		t.Fatal("tensor names")
	}
	if Tensor(9).String() != "Tensor(9)" {
		t.Fatalf("out-of-range tensor = %q", Tensor(9).String())
	}
}

// A whole-layer tile of each tensor is the tensor itself.
func TestTileBytesOfWholeLayer(t *testing.T) {
	tall := workload.Conv("tall", 1, 4, 3, 3, 3, 10, 11) // strides 1 across, 2 down
	tall.StrideY = 2
	for _, l := range []workload.Layer{
		workload.Conv("c", 2, 4, 3, 3, 3, 10, 10),
		workload.FromDepthwise("dw", 8, 3, 3, 15, 15, 2),
		workload.FromFC("fc", 64, 10),
		tall,
	} {
		sizes := l.Sizes()
		want := [NumTensors]int64{l.InputElems(), l.WeightElems(), l.OutputElems()}
		got := TileBytes(&l, &sizes)
		for tensor := TensorInput; tensor < NumTensors; tensor++ {
			if got[tensor] != want[tensor] {
				t.Errorf("%s: %s tile of the whole layer = %d B, want %d", l.Name, tensor, got[tensor], want[tensor])
			}
		}
		if got := TileFootprint(l, sizes); got != want[0]+want[1]+want[2] {
			t.Errorf("%s: footprint %d, want %d", l.Name, got, want[0]+want[1]+want[2])
		}
	}
}

func TestDistinctTiles(t *testing.T) {
	trips := [workload.NumDims]int{2, 3, 5, 7, 11, 13, 17} // N K C R S X Y
	for _, tc := range []struct {
		t    Tensor
		want int64
	}{
		{TensorInput, 2 * 5 * 7 * 11 * 13 * 17},
		{TensorWeight, 3 * 5 * 7 * 11},
		{TensorOutput, 2 * 3 * 13 * 17},
	} {
		if got := tc.t.DistinctTiles(&trips); got != tc.want {
			t.Errorf("%s distinct tiles = %d, want %d", tc.t, got, tc.want)
		}
	}
}

func TestSpatialCopies(t *testing.T) {
	// 4 rows and 8 columns, every unrolled loop long enough to fill
	// its lanes.
	n1 := [workload.NumDims]int{64, 64, 64, 64, 64, 64, 64}
	lanes := func(uo, ui workload.Dim) Lanes {
		var f ArrayFold
		f.Fold(uo, ui, &n1, 4, 8)
		return f.Lanes()
	}
	// Weights depend on K but not X: unrolling K over rows and X over
	// columns needs one copy per row, multicast across columns.
	if c := lanes(workload.DimK, workload.DimX).Copies(TensorWeight); c != 4 {
		t.Fatalf("row-dependent copies = %v, want 4", c)
	}
	// Unrolling X over rows and Y over columns multicasts weights fully.
	if c := lanes(workload.DimX, workload.DimY).Copies(TensorWeight); c != 1 {
		t.Fatalf("multicast copies = %v, want 1", c)
	}
	// K on both axes: dependent tensors need a copy per PE.
	if c := lanes(workload.DimK, workload.DimK).Copies(TensorWeight); c != 32 {
		t.Fatalf("combined copies = %v, want 32", c)
	}
	if c := lanes(workload.DimK, workload.DimK).Copies(TensorInput); c != 1 {
		t.Fatalf("combined multicast copies = %v, want 1", c)
	}
}

func TestCombinedLanes(t *testing.T) {
	n1 := [workload.NumDims]int{1, 100, 1, 1, 1, 1, 1}
	var f ArrayFold
	f.Fold(workload.DimK, workload.DimK, &n1, 4, 8)
	if l := f.Lanes(); l.Rows != 4 || l.Cols != 8 {
		t.Fatalf("saturated lanes = %dx%d, want 4x8", l.Rows, l.Cols)
	}
	if f.Folds != [2]int{4, 0} {
		t.Fatalf("folds of 100 over 32 PEs = %v, want [4 0]", f.Folds)
	}
	n1[workload.DimK] = 5
	f.Fold(workload.DimK, workload.DimK, &n1, 4, 8)
	if l := f.Lanes(); l.Rows != 1 || l.Cols != 5 {
		t.Fatalf("small-trip lanes = %dx%d, want 1x5", l.Rows, l.Cols)
	}
}

func TestArrayFold(t *testing.T) {
	n1 := [workload.NumDims]int{1, 6, 3, 1, 1, 2, 2} // N K C R S X Y
	var f ArrayFold
	f.Fold(workload.DimK, workload.DimC, &n1, 4, 2)
	// K's 6 trips over 4 rows fold twice; C's 3 over 2 columns twice.
	if f.Folds != [2]int{2, 2} {
		t.Fatalf("folds = %v, want [2 2]", f.Folds)
	}
	got := n1
	f.Temporal(&got)
	if want := [workload.NumDims]int{1, 2, 2, 1, 1, 2, 2}; got != want {
		t.Fatalf("temporal trips = %v, want %v", got, want)
	}
	l := f.Lanes()
	if l.Rows != 4 || l.Cols != 2 {
		t.Fatalf("lanes = %dx%d, want 4x2", l.Rows, l.Cols)
	}
	// Rows do 6 of 2·4 useful steps, columns 3 of 2·2.
	if got, want := f.Utilization(), (6.0/8)*(3.0/4); got != want {
		t.Fatalf("utilization = %v, want %v", got, want)
	}
	// Outputs depend on K (rows) but not C (columns); inputs the reverse.
	if l.Copies(TensorOutput) != 4 || l.Copies(TensorInput) != 2 || l.Copies(TensorWeight) != 8 {
		t.Fatalf("copies out/in/w = %d/%d/%d, want 4/2/8",
			l.Copies(TensorOutput), l.Copies(TensorInput), l.Copies(TensorWeight))
	}
}
