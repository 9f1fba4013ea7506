package nn

import (
	"fmt"

	"jpegact/internal/compress"
	"jpegact/internal/dct"
	"jpegact/internal/freqdomain"
	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// Conv2D is a 2D convolution with square kernels, implemented as im2col
// followed by GEMM (the same lowering cuDNN's IMPLICIT_GEMM uses). The
// layer saves its input activation — the "conv input r" of Fig. 3 — and
// recomputes the im2col lowering from the (possibly lossy) recovered
// input during backward, so compression error propagates into ∇w exactly
// as Eqn. 9 describes.
type Conv2D struct {
	LayerName   string
	InC, OutC   int
	Kernel      int
	Stride, Pad int
	Weight      *Param // (OutC, InC, K, K)
	Bias        *Param // (1, OutC, 1, 1); nil when disabled
	in          *ActRef
	inShape     tensor.Shape // shape of the saved input (survives offload nil-ing T)
	outShape    tensor.Shape
	colBuf      []float32
	dcolBuf     []float32
	freqGF      []float32 // transposed grad coefficients (HW × OutC)
	freqWG      []float32 // ∇Wᵀ accumulator (InC × OutC)
}

// ConvOpts configures optional conv features.
type ConvOpts struct {
	Stride int
	Pad    int
	Bias   bool
}

// NewConv2D builds a conv layer with He initialization.
func NewConv2D(name string, inC, outC, kernel int, opts ConvOpts, rng *tensor.RNG) *Conv2D {
	if opts.Stride == 0 {
		opts.Stride = 1
	}
	c := &Conv2D{
		LayerName: name,
		InC:       inC,
		OutC:      outC,
		Kernel:    kernel,
		Stride:    opts.Stride,
		Pad:       opts.Pad,
		Weight:    NewParam(name+".W", outC, inC, kernel, kernel),
	}
	c.Weight.W.FillHe(rng, inC*kernel*kernel)
	if opts.Bias {
		c.Bias = NewParam(name+".b", 1, outC, 1, 1)
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// SavedRefs implements Layer.
func (c *Conv2D) SavedRefs() []*ActRef {
	if c.in == nil {
		return nil
	}
	return []*ActRef{c.in}
}

func (c *Conv2D) outDims(in tensor.Shape) (int, int) {
	ho := (in.H+2*c.Pad-c.Kernel)/c.Stride + 1
	wo := (in.W+2*c.Pad-c.Kernel)/c.Stride + 1
	return ho, wo
}

// Forward implements Layer.
func (c *Conv2D) Forward(in *ActRef, train bool) *ActRef {
	x := in.T
	if x.Shape.C != c.InC {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %v", c.LayerName, c.InC, x.Shape))
	}
	// A conv consumer upgrades a ReLU-produced ref: its values are needed.
	if in.Kind == compress.KindReLUToOther {
		in.Kind = compress.KindReLUToConv
	}
	if train {
		c.in = in
		c.inShape = x.Shape
	}
	ho, wo := c.outDims(x.Shape)
	c.outShape = tensor.Shape{N: x.Shape.N, C: c.OutC, H: ho, W: wo}
	out := tensor.New(x.Shape.N, c.OutC, ho, wo)

	k2 := c.InC * c.Kernel * c.Kernel
	spatial := ho * wo
	if cap(c.colBuf) < k2*spatial {
		c.colBuf = make([]float32, k2*spatial)
	}
	cols := c.colBuf[:k2*spatial]
	w := newGemmLHS(c.OutC, k2, c.Weight.W.Data, false)
	for n := 0; n < x.Shape.N; n++ {
		c.im2col(x, n, cols)
		// out[n] (OutC × spatial) = W (OutC × k2) · cols (k2 × spatial)
		dst := out.Data[n*c.OutC*spatial : (n+1)*c.OutC*spatial]
		w.mul(spatial, cols, dst, gemmAccumulate)
	}
	w.release()
	if c.Bias != nil {
		for n := 0; n < out.Shape.N; n++ {
			for oc := 0; oc < c.OutC; oc++ {
				b := c.Bias.W.Data[oc]
				base := (n*c.OutC + oc) * spatial
				for i := 0; i < spatial; i++ {
					out.Data[base+i] += b
				}
			}
		}
	}
	return &ActRef{Name: c.LayerName + ".out", Kind: compress.KindConv, T: out}
}

// WantsCoefficients implements CoefficientConsumer. Only the 1×1,
// stride-1, unpadded configuration qualifies: there im2col is the
// identity, so ∇W is a plain GEMM against the saved input and moves to
// the coefficient domain by DCT linearity (Parseval per plane). The kind
// must be one the codec routes through the DCT path, and both spatial
// dims must be 8-aligned.
func (c *Conv2D) WantsCoefficients(ref *ActRef) bool {
	return ref == c.in && ref.Kind == compress.KindConv &&
		c.Kernel == 1 && c.Stride == 1 && c.Pad == 0 &&
		c.inShape.H%dct.BlockSize == 0 && c.inShape.W%dct.BlockSize == 0
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.in == nil {
		panic("nn: conv backward before forward")
	}
	if c.in.Coef != nil {
		if c.in.T == nil && c.in.Coef.Aligned() &&
			c.Kernel == 1 && c.Stride == 1 && c.Pad == 0 {
			return c.backwardFreq(grad)
		}
		spatialFromPlane(c.in)
	}
	x := c.in.T
	if x == nil {
		panic("nn: conv backward needs saved input values (BRC mask is not enough)")
	}
	ho, wo := c.outShape.H, c.outShape.W
	spatial := ho * wo
	k2 := c.InC * c.Kernel * c.Kernel

	dx := tensor.NewLike(x)
	if cap(c.colBuf) < k2*spatial {
		c.colBuf = make([]float32, k2*spatial)
	}
	cols := c.colBuf[:k2*spatial]
	if cap(c.dcolBuf) < k2*spatial {
		c.dcolBuf = make([]float32, k2*spatial)
	}
	dcols := c.dcolBuf[:k2*spatial]
	wT := newGemmLHS(k2, c.OutC, c.Weight.W.Data, true)
	for n := 0; n < x.Shape.N; n++ {
		gout := grad.Data[n*c.OutC*spatial : (n+1)*c.OutC*spatial]
		// ∇W += ∇y[n] · colsᵀ  (OutC×spatial · spatial×k2)
		c.im2col(x, n, cols)
		GemmTB(c.OutC, spatial, k2, gout, cols, c.Weight.Grad.Data)
		// ∇cols = Wᵀ · ∇y[n]  (k2×OutC · OutC×spatial), written over the
		// last element's: zero-seeded accumulators are what clearing
		// dcols and accumulating into it would compute.
		wT.mul(spatial, gout, dcols, gemmOverwrite)
		c.col2im(dcols, dx, n)
	}
	wT.release()
	if c.Bias != nil {
		for n := 0; n < grad.Shape.N; n++ {
			for oc := 0; oc < c.OutC; oc++ {
				base := (n*c.OutC + oc) * spatial
				var sum float32
				for i := 0; i < spatial; i++ {
					sum += grad.Data[base+i]
				}
				c.Bias.Grad.Data[oc] += sum
			}
		}
	}
	return dx
}

// backwardFreq is the coefficient-domain backward for the 1×1/stride-1/
// unpadded configuration. ∇W moves to the frequency domain by Parseval:
// per batch element, the saved input's sparse quantized blocks multiply
// the gradient's transposed forward-DCT columns through CoefGemm, which
// walks only the stored nonzero coefficients — every post-quantization
// zero is skipped at the source rather than re-scanned per GEMM panel.
// ∇x never needed the saved input at all — it is Wᵀ·∇y through the
// GEMM micro-kernels exactly as in the spatial path (col2im is
// the identity here), so the input gradient is bit-identical to a
// spatial-restore run; only ∇W carries the frequency path's documented
// half-code-unit tolerance.
func (c *Conv2D) backwardFreq(grad *tensor.Tensor) *tensor.Tensor {
	pl := c.in.Coef
	sh := pl.Shape()
	spatial := sh.H * sh.W
	dx := tensor.New(sh.N, c.InC, sh.H, sh.W)

	if cap(c.freqGF) < spatial*c.OutC {
		c.freqGF = make([]float32, spatial*c.OutC)
	}
	gf := c.freqGF[:spatial*c.OutC]
	if cap(c.freqWG) < c.InC*c.OutC {
		c.freqWG = make([]float32, c.InC*c.OutC)
	}
	wgT := c.freqWG[:c.InC*c.OutC]
	for i := range wgT {
		wgT[i] = 0
	}
	wT := newGemmLHS(c.InC, c.OutC, c.Weight.W.Data, true)
	for n := 0; n < sh.N; n++ {
		gout := grad.Data[n*c.OutC*spatial : (n+1)*c.OutC*spatial]
		// ∇Wᵀ += X̃f (InC×HW, sparse) · Gf (HW×OutC)
		freqdomain.GradCoefColumns(grad, n, gf)
		pl.CoefGemm(n, c.OutC, gf, wgT)
		// ∇x[n] = Wᵀ·∇y[n]
		wT.mul(spatial, gout, dx.Data[n*c.InC*spatial:(n+1)*c.InC*spatial], gemmAccumulate)
	}
	wT.release()
	for oc := 0; oc < c.OutC; oc++ {
		for ic := 0; ic < c.InC; ic++ {
			c.Weight.Grad.Data[oc*c.InC+ic] += wgT[ic*c.OutC+oc]
		}
	}
	if c.Bias != nil {
		for n := 0; n < grad.Shape.N; n++ {
			for oc := 0; oc < c.OutC; oc++ {
				base := (n*c.OutC + oc) * spatial
				var sum float32
				for i := 0; i < spatial; i++ {
					sum += grad.Data[base+i]
				}
				c.Bias.Grad.Data[oc] += sum
			}
		}
	}
	return dx
}

// colRange returns the half-open output range [lo, hi) whose input
// coordinate ox·stride + k - pad falls inside [0, extent), clamped to
// [0, out). Everything outside the range is pad.
func colRange(out, extent, stride, k, pad int) (int, int) {
	lo := 0
	if k < pad {
		lo = (pad - k + stride - 1) / stride
	}
	top := extent - 1 - k + pad
	if top < 0 {
		// Go's / truncates toward zero, so top/stride would round a
		// negative numerator up to 0 — return an explicitly empty range.
		return 0, 0
	}
	hi := top/stride + 1
	if hi > out {
		hi = out
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// im2col lowers batch element n of x into cols (k2 × ho*wo). Input
// channels are distributed over the worker pool: channel ic fills the
// contiguous cols slab [ic·K²·spatial, (ic+1)·K²·spatial), so workers
// never share an output index. The pad test is hoisted out of the inner
// loop: per output row only the in-bounds ox range is gathered (a copy
// for stride 1), the fringe is zero-filled.
func (c *Conv2D) im2col(x *tensor.Tensor, n int, cols []float32) {
	ho, wo := c.outDims(x.Shape)
	h, w := x.Shape.H, x.Shape.W
	perC := c.Kernel * c.Kernel * ho * wo
	parallel.For(c.InC, parallel.Grain(perC, 1<<14), func(lo, hi int) {
		for ic := lo; ic < hi; ic++ {
			idx := ic * perC
			chBase := (n*x.Shape.C + ic) * h * w
			for ky := 0; ky < c.Kernel; ky++ {
				for kx := 0; kx < c.Kernel; kx++ {
					oxLo, oxHi := colRange(wo, w, c.Stride, kx, c.Pad)
					for oy := 0; oy < ho; oy++ {
						iy := oy*c.Stride + ky - c.Pad
						dst := cols[idx : idx+wo]
						idx += wo
						if iy < 0 || iy >= h {
							for i := range dst {
								dst[i] = 0
							}
							continue
						}
						for i := 0; i < oxLo; i++ {
							dst[i] = 0
						}
						src := x.Data[chBase+iy*w:]
						if c.Stride == 1 {
							off := kx - c.Pad
							copy(dst[oxLo:oxHi], src[oxLo+off:])
						} else {
							ix := oxLo*c.Stride + kx - c.Pad
							for ox := oxLo; ox < oxHi; ox++ {
								dst[ox] = src[ix]
								ix += c.Stride
							}
						}
						for i := oxHi; i < wo; i++ {
							dst[i] = 0
						}
					}
				}
			}
		}
	})
}

// col2im scatters dcols back into batch element n of dx (accumulating).
// Parallel over input channels: channel ic only accumulates into its own
// dx plane, and reads its own dcols slab, so ranges stay disjoint and
// the per-element accumulation order matches the serial loop. Pad
// handling is hoisted like im2col's; out-of-range columns are skipped.
func (c *Conv2D) col2im(dcols []float32, dx *tensor.Tensor, n int) {
	ho, wo := c.outDims(dx.Shape)
	h, w := dx.Shape.H, dx.Shape.W
	perC := c.Kernel * c.Kernel * ho * wo
	parallel.For(c.InC, parallel.Grain(perC, 1<<14), func(lo, hi int) {
		for ic := lo; ic < hi; ic++ {
			idx := ic * perC
			chBase := (n*dx.Shape.C + ic) * h * w
			for ky := 0; ky < c.Kernel; ky++ {
				for kx := 0; kx < c.Kernel; kx++ {
					oxLo, oxHi := colRange(wo, w, c.Stride, kx, c.Pad)
					for oy := 0; oy < ho; oy++ {
						iy := oy*c.Stride + ky - c.Pad
						row := dcols[idx : idx+wo]
						idx += wo
						if iy < 0 || iy >= h {
							continue
						}
						dst := dx.Data[chBase+iy*w:]
						if c.Stride == 1 {
							off := kx - c.Pad
							for ox := oxLo; ox < oxHi; ox++ {
								dst[ox+off] += row[ox]
							}
						} else {
							ix := oxLo*c.Stride + kx - c.Pad
							for ox := oxLo; ox < oxHi; ox++ {
								dst[ix] += row[ox]
								ix += c.Stride
							}
						}
					}
				}
			}
		}
	})
}
