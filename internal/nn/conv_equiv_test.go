package nn

import (
	"fmt"
	"strings"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/tensor"
)

// Conv2D against a lowering that shares no code with it: a per-element
// bounds-tested im2col into a plain row-major matrix, the saxpy oracles of
// gemm_ref_test.go for the three products in the orientation the layer
// used before it fused them (W·cols, ∇y·colsᵀ accumulated over the batch,
// Wᵀ·∇y), and an index-by-index col2im. The gate is Float32bits on out,
// dx, ∇W and ∇b, on both sides of forBatch's N ≥ Workers predicate.

// refIm2col lowers batch element n of x into cols (k2 × ho·wo, row-major).
func refIm2col(x *tensor.Tensor, n, kernel, stride, pad, ho, wo int, cols []float32) {
	i := 0
	for ic := 0; ic < x.Shape.C; ic++ {
		for ky := 0; ky < kernel; ky++ {
			for kx := 0; kx < kernel; kx++ {
				for oy := 0; oy < ho; oy++ {
					for ox := 0; ox < wo; ox++ {
						iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
						cols[i] = 0
						if iy >= 0 && iy < x.Shape.H && ix >= 0 && ix < x.Shape.W {
							cols[i] = x.At(n, ic, iy, ix)
						}
						i++
					}
				}
			}
		}
	}
}

// refCol2im adds dcols into batch element n of dx, rows in ascending order.
func refCol2im(dcols []float32, dx *tensor.Tensor, n, kernel, stride, pad, ho, wo int) {
	i := 0
	for ic := 0; ic < dx.Shape.C; ic++ {
		for ky := 0; ky < kernel; ky++ {
			for kx := 0; kx < kernel; kx++ {
				for oy := 0; oy < ho; oy++ {
					for ox := 0; ox < wo; ox++ {
						iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
						if iy >= 0 && iy < dx.Shape.H && ix >= 0 && ix < dx.Shape.W {
							dx.Data[dx.Index(n, ic, iy, ix)] += dcols[i]
						}
						i++
					}
				}
			}
		}
	}
}

type convCase struct {
	kernel, stride, pad int
	h, w, inC, outC, n  int
	bias                bool
}

func (cc convCase) String() string {
	return fmt.Sprintf("k%d s%d p%d %dx%d %d->%d N%d bias=%v", cc.kernel, cc.stride, cc.pad, cc.h, cc.w, cc.inC, cc.outC, cc.n, cc.bias)
}

// convOperands are one case's tensors: the incoming ∇W and ∇b are random,
// because Backward accumulates into them.
type convOperands struct {
	x, grad, w, b, dw0, db0 *tensor.Tensor
	ho, wo                  int
}

func (cc convCase) operands() (op convOperands, ok bool) {
	op.ho = (cc.h+2*cc.pad-cc.kernel)/cc.stride + 1
	op.wo = (cc.w+2*cc.pad-cc.kernel)/cc.stride + 1
	if cc.h+2*cc.pad < cc.kernel || cc.w+2*cc.pad < cc.kernel {
		return op, false
	}
	seed := uint64(cc.kernel*1000 + cc.stride*100 + cc.pad*10 + cc.h + cc.n)
	op.x = randT(seed, cc.n, cc.inC, cc.h, cc.w)
	op.grad = randT(seed+1, cc.n, cc.outC, op.ho, op.wo)
	op.w = randT(seed+2, cc.outC, cc.inC, cc.kernel, cc.kernel)
	op.b = randT(seed+3, 1, cc.outC, 1, 1)
	op.dw0 = randT(seed+4, cc.outC, cc.inC, cc.kernel, cc.kernel)
	op.db0 = randT(seed+5, 1, cc.outC, 1, 1)
	return op, true
}

// reference returns out, dx, ∇W, ∇b from the unfused lowering.
func (cc convCase) reference(op convOperands) [4][]float32 {
	k2, spatial := cc.inC*cc.kernel*cc.kernel, op.ho*op.wo
	out := tensor.New(cc.n, cc.outC, op.ho, op.wo)
	dx := tensor.NewLike(op.x)
	dw, db := op.dw0.Clone(), op.db0.Clone()
	cols, dcols := make([]float32, k2*spatial), make([]float32, k2*spatial)
	for n := 0; n < cc.n; n++ {
		refIm2col(op.x, n, cc.kernel, cc.stride, cc.pad, op.ho, op.wo, cols)
		o := out.Data[n*cc.outC*spatial : (n+1)*cc.outC*spatial]
		gemmSaxpy(cc.outC, k2, spatial, op.w.Data, cols, o)
		g := op.grad.Data[n*cc.outC*spatial : (n+1)*cc.outC*spatial]
		gemmTBSaxpy(cc.outC, spatial, k2, g, cols, dw.Data)
		clear(dcols)
		gemmTASaxpy(k2, cc.outC, spatial, op.w.Data, g, dcols)
		refCol2im(dcols, dx, n, cc.kernel, cc.stride, cc.pad, op.ho, op.wo)
		if !cc.bias {
			continue
		}
		for oc := 0; oc < cc.outC; oc++ {
			var sum float32
			for i := 0; i < spatial; i++ {
				o[oc*spatial+i] += op.b.Data[oc]
				sum += g[oc*spatial+i]
			}
			db.Data[oc] += sum
		}
	}
	return [4][]float32{out.Data, dx.Data, dw.Data, db.Data}
}

// layer returns the same four from Conv2D.
func (cc convCase) layer(op convOperands) [4][]float32 {
	c := NewConv2D("c", cc.inC, cc.outC, cc.kernel, ConvOpts{Stride: cc.stride, Pad: cc.pad, Bias: cc.bias}, tensor.NewRNG(1))
	copy(c.Weight.W.Data, op.w.Data)
	copy(c.Weight.Grad.Data, op.dw0.Data)
	db := op.db0.Data
	if cc.bias {
		copy(c.Bias.W.Data, op.b.Data)
		copy(c.Bias.Grad.Data, op.db0.Data)
		db = c.Bias.Grad.Data
	}
	out := c.Forward(&ActRef{Kind: compress.KindConv, T: op.x}, true)
	dx := c.Backward(op.grad)
	return [4][]float32{out.T.Data, dx.Data, c.Weight.Grad.Data, db}
}

// checkConvCase compares Conv2D with the reference on one case, at 1, 2,
// 3 and 8 workers, on the platform's GEMM kernel and the portable one.
func checkConvCase(t *testing.T, cc convCase) {
	t.Helper()
	op, ok := cc.operands()
	if !ok {
		return
	}
	want := cc.reference(op)
	check := func(gemm string, workers int) {
		got := cc.layer(op)
		at := fmt.Sprintf("%v workers=%d %s kernel: ", cc, workers, gemm)
		for i, name := range []string{"out", "dx", "dW", "db"} {
			bitsEqual(t, at+name, got[i], want[i])
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		runAtWorkers(workers, func() {
			check("platform", workers)
			WithPortableGemm(func() { check("portable", workers) })
		})
	}
}

// TestConvBitIdenticalToReference walks kernels × strides × pads over
// planes that are not multiples of the panel width and channel counts
// that are not multiples of the tile, at batch sizes on both sides of
// every worker count.
func TestConvBitIdenticalToReference(t *testing.T) {
	for _, kernel := range []int{1, 3, 5, 7} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 3} {
				for _, hw := range [][2]int{{5, 7}, {4, 4}, {9, 9}} {
					for _, ch := range [][2]int{{3, 5}, {5, 18}} {
						for _, n := range []int{1, 2, 8} {
							checkConvCase(t, convCase{kernel, stride, pad, hw[0], hw[1], ch[0], ch[1], n, (kernel+n)%2 == 0})
						}
					}
				}
			}
		}
	}
}

// TestConvPanelAlignedBitIdentical covers the planes the bench model runs:
// 16×16 and 32×32, where most output rows are whole 16-column panels
// (the stride-1 line move and the stride-2 gather; 3×3, stride 2, pad 1
// takes 32×32 to 16×16) and the rest fall back to the tap-by-tap walk.
func TestConvPanelAlignedBitIdentical(t *testing.T) {
	for _, kernel := range []int{1, 3} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, hw := range []int{16, 32} {
					for _, ch := range [][2]int{{3, 5}, {5, 18}} {
						for _, n := range []int{1, 8} {
							checkConvCase(t, convCase{kernel, stride, pad, hw, hw, ch[0], ch[1], n, (kernel+n)%2 == 0})
						}
					}
				}
			}
		}
	}
}

// A gradient of the wrong shape is refused with the layer's name and both
// shapes, as Forward refuses a channel mismatch: sliced by the recorded
// output shape, a larger one would be read as some other tensor's values.
func checkRejectsGradient(t *testing.T, l Layer, want tensor.Shape, wrong ...*tensor.Tensor) {
	t.Helper()
	for _, g := range wrong {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, part := range []string{l.Name(), want.String(), g.Shape.String()} {
					if !strings.Contains(msg, part) {
						t.Errorf("%s backward with a %v gradient: panic %q does not name %q", l.Name(), g.Shape, msg, part)
					}
				}
			}()
			l.Backward(g)
		}()
	}
}

func TestConvBackwardRejectsWrongGradientShape(t *testing.T) {
	conv := NewConv2D("conv7", 2, 3, 3, ConvOpts{Pad: 1}, tensor.NewRNG(3))
	conv.Forward(&ActRef{Kind: compress.KindConv, T: randT(1, 2, 2, 4, 4)}, true)
	checkRejectsGradient(t, conv, tensor.Shape{N: 2, C: 3, H: 4, W: 4}, tensor.New(2, 3, 5, 5), tensor.New(4, 3, 4, 4))
}

func TestLinearBackwardRejectsWrongGradientShape(t *testing.T) {
	lin := NewLinear("fc9", 8, 3, tensor.NewRNG(3))
	lin.Forward(&ActRef{Kind: compress.KindConv, T: randT(2, 2, 8, 1, 1)}, true)
	checkRejectsGradient(t, lin, tensor.Shape{N: 2, C: 3, H: 1, W: 1}, tensor.New(3, 3, 1, 1), tensor.New(2, 4, 1, 1))
}
