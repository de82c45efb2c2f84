// Package workload defines the deep-learning workloads that Spotlight
// co-designs accelerators for: the CONV layer abstraction (the paper's
// 7-level loop of Figure 1), the transformations that lower other layer
// types onto CONV (col2im for GEMM, per-channel decomposition for
// depth-wise convolutions), and the five-model zoo used throughout the
// evaluation (VGG16, ResNet-50, MobileNetV2, MnasNet, Transformer).
package workload

import "fmt"

// Dim identifies one of the seven loop dimensions of a CONV layer
// (Figure 1 of the paper).
type Dim int

// The seven CONV loop dimensions.
const (
	DimN Dim = iota // batch
	DimK            // output channels (number of weight kernels)
	DimC            // input channels
	DimR            // kernel height
	DimS            // kernel width
	DimX            // input height
	DimY            // input width
)

// NumDims is the number of CONV loop dimensions.
const NumDims = 7

// AllDims lists the seven dimensions in canonical order.
var AllDims = [NumDims]Dim{DimN, DimK, DimC, DimR, DimS, DimX, DimY}

var dimNames = [NumDims]string{"N", "K", "C", "R", "S", "X", "Y"}

// String returns the conventional single-letter name of the dimension.
func (d Dim) String() string {
	if d < 0 || int(d) >= NumDims {
		return fmt.Sprintf("Dim(%d)", int(d))
	}
	return dimNames[d]
}

// OpKind records the original operation a layer was lowered from. All
// kinds are executed as CONV; the kind is retained for reporting.
type OpKind int

// Layer operation kinds.
const (
	OpConv      OpKind = iota // native convolution
	OpDepthwise               // depth-wise convolution, decomposed per channel
	OpGEMM                    // matrix multiply, lowered via col2im
	OpFC                      // fully connected, lowered as 1x1 CONV
)

var opNames = map[OpKind]string{
	OpConv:      "CONV",
	OpDepthwise: "DWCONV",
	OpGEMM:      "GEMM",
	OpFC:        "FC",
}

// String returns a short name for the operation kind.
func (o OpKind) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(o))
}

// Layer is one CONV-space layer: a weight tensor of size K×C×R×S applied
// to N input tensors of size C×X×Y with the given strides. Layers lowered
// from GEMM or depth-wise convolutions record their origin in Op.
//
// Repeat counts how many times this exact shape occurs in the parent
// model, so model-level aggregates weight each unique shape correctly
// without evaluating duplicates.
type Layer struct {
	Name    string
	Op      OpKind
	N       int // batch size
	K       int // output channels
	C       int // input channels
	R       int // filter height
	S       int // filter width
	X       int // input height
	Y       int // input width
	StrideX int
	StrideY int
	Repeat  int
}

// Conv builds a standard convolution layer with stride 1 and Repeat 1.
func Conv(name string, n, k, c, r, s, x, y int) Layer {
	return Layer{Name: name, Op: OpConv, N: n, K: k, C: c, R: r, S: s, X: x, Y: y,
		StrideX: 1, StrideY: 1, Repeat: 1}
}

// Strided returns a copy of l with the given stride in both dimensions.
func (l Layer) Strided(stride int) Layer {
	l.StrideX, l.StrideY = stride, stride
	return l
}

// Times returns a copy of l with the given repeat count.
func (l Layer) Times(n int) Layer {
	l.Repeat = n
	return l
}

// FromGEMM lowers a GEMM of shape (M×Kd)·(Kd×Nd) onto a 1×1 CONV using the
// col2im transformation: the Nd output columns become spatial positions
// (X×Y with X·Y = Nd, factored as squarely as Nd permits), the reduction
// dimension Kd becomes input channels, and the M output rows become output
// channels. As the paper notes for Transformer, this can produce large and
// uneven layer shapes.
func FromGEMM(name string, m, kd, nd int) Layer {
	x, y := factorNear(nd)
	return Layer{Name: name, Op: OpGEMM, N: 1, K: m, C: kd, R: 1, S: 1,
		X: x, Y: y, StrideX: 1, StrideY: 1, Repeat: 1}
}

// FromFC lowers a fully connected layer with the given input and output
// widths onto a 1×1 CONV over a single spatial position.
func FromFC(name string, in, out int) Layer {
	return Layer{Name: name, Op: OpFC, N: 1, K: out, C: in, R: 1, S: 1,
		X: 1, Y: 1, StrideX: 1, StrideY: 1, Repeat: 1}
}

// FromDepthwise lowers a depth-wise convolution over ch channels into a
// single-channel CONV repeated once per channel: the channel loop is
// folded into the batch dimension, which preserves total MAC count and
// per-position data movement while keeping the layer expressible in the
// 7-loop CONV form.
func FromDepthwise(name string, ch, r, s, x, y, stride int) Layer {
	return Layer{Name: name, Op: OpDepthwise, N: ch, K: 1, C: 1, R: r, S: s,
		X: x, Y: y, StrideX: stride, StrideY: stride, Repeat: 1}
}

// factorNear factors n into (x, y) with x·y == n and x as close to sqrt(n)
// as possible, preferring the more square factorization.
func factorNear(n int) (int, int) {
	if n <= 0 {
		return 1, 1
	}
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return best, n / best
}

// OutX returns the output height (X - R)/StrideX + 1.
func (l Layer) OutX() int { return (l.X-l.R)/l.StrideX + 1 }

// OutY returns the output width (Y - S)/StrideY + 1.
func (l Layer) OutY() int { return (l.Y-l.S)/l.StrideY + 1 }

// Size returns the extent of dimension d. For X and Y this is the *output*
// extent, which is what the loop bounds of Figure 1 iterate over; the
// input footprint is derived from the output tile plus the filter halo.
func (l Layer) Size(d Dim) int {
	switch d {
	case DimN:
		return l.N
	case DimK:
		return l.K
	case DimC:
		return l.C
	case DimR:
		return l.R
	case DimS:
		return l.S
	case DimX:
		return l.OutX()
	case DimY:
		return l.OutY()
	}
	panic(fmt.Sprintf("workload: invalid dim %d", int(d)))
}

// Sizes returns the extents of all seven dimensions in canonical order.
func (l Layer) Sizes() [NumDims]int {
	return [NumDims]int{l.N, l.K, l.C, l.R, l.S, l.OutX(), l.OutY()}
}

// MACs returns the number of multiply-accumulate operations needed to
// compute the layer once (not weighted by Repeat).
func (l Layer) MACs() int64 {
	return int64(l.N) * int64(l.K) * int64(l.C) * int64(l.R) * int64(l.S) *
		int64(l.OutX()) * int64(l.OutY())
}

// InputElems returns the number of input tensor elements.
func (l Layer) InputElems() int64 {
	return int64(l.N) * int64(l.C) * int64(l.X) * int64(l.Y)
}

// WeightElems returns the number of weight tensor elements.
func (l Layer) WeightElems() int64 {
	return int64(l.K) * int64(l.C) * int64(l.R) * int64(l.S)
}

// OutputElems returns the number of output tensor elements.
func (l Layer) OutputElems() int64 {
	return int64(l.N) * int64(l.K) * int64(l.OutX()) * int64(l.OutY())
}

// Validate reports an error when the layer shape is degenerate (any
// non-positive dimension, filter larger than input, or invalid stride).
func (l Layer) Validate() error {
	if l.N <= 0 || l.K <= 0 || l.C <= 0 || l.R <= 0 || l.S <= 0 || l.X <= 0 || l.Y <= 0 {
		return fmt.Errorf("workload: layer %q has a non-positive dimension: %+v", l.Name, l)
	}
	if l.StrideX <= 0 || l.StrideY <= 0 {
		return fmt.Errorf("workload: layer %q has non-positive stride", l.Name)
	}
	if l.R > l.X || l.S > l.Y {
		return fmt.Errorf("workload: layer %q filter %dx%d exceeds input %dx%d", l.Name, l.R, l.S, l.X, l.Y)
	}
	if l.Repeat <= 0 {
		return fmt.Errorf("workload: layer %q has non-positive repeat %d", l.Name, l.Repeat)
	}
	return nil
}

// String renders the layer in a compact shape notation.
func (l Layer) String() string {
	return fmt.Sprintf("%s[%s N%d K%d C%d R%d S%d X%d Y%d /%d x%d]",
		l.Name, l.Op, l.N, l.K, l.C, l.R, l.S, l.X, l.Y, l.StrideX, l.Repeat)
}
