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
//
// A pass is one fork-join over the batch (forBatch): a shard takes its
// element from lowering to result on scratch of its own, so nothing but
// the read-only weights is shared and no element's float32 op sequence
// depends on which shard ran it.
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

func (c *Conv2D) outDims(h, w int) (int, int) {
	ho := (h+2*c.Pad-c.Kernel)/c.Stride + 1
	wo := (w+2*c.Pad-c.Kernel)/c.Stride + 1
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
		c.in = in.save()
		c.inShape = x.Shape
	}
	ho, wo := c.outDims(x.Shape.H, x.Shape.W)
	c.outShape = tensor.Shape{N: x.Shape.N, C: c.OutC, H: ho, W: wo}
	out := x.Derive(c.outShape)

	k2 := c.InC * c.Kernel * c.Kernel
	spatial := ho * wo
	inElems := c.InC * x.Shape.H * x.Shape.W
	forBatch(x.Shape.N, func(lo, hi int, split bool) {
		pk := packPool.get(gemmPanels(spatial) * k2 * gemmNR)
		for n := lo; n < hi; n++ {
			// out[n] (OutC × spatial) = W (OutC × k2) · cols (k2 × spatial),
			// cols lowered straight into the panels the tiles read.
			c.im2col(x.Data[n*inElems:(n+1)*inElems], x.Shape.H, x.Shape.W, gemmNR, *pk)
			dst := out.Data[n*c.OutC*spatial : (n+1)*c.OutC*spatial]
			gemmTiles(c.OutC, k2, spatial, c.Weight.W.Data, *pk, dst, gemmOverwrite, split)
			if c.Bias != nil {
				for oc, b := range c.Bias.W.Data {
					row := dst[oc*spatial : (oc+1)*spatial]
					for i := range row {
						row[i] += b
					}
				}
			}
		}
		packPool.put(pk)
	})
	return &ActRef{Name: c.LayerName + ".out", Kind: compress.KindConv, T: out}
}

// forBatch runs fn over the n elements of a batch. With at least one
// element per worker the elements are the shards, handed out one at a
// time, and fn runs its GEMMs on the calling shard (split false); a
// smaller batch runs as one serial range whose GEMMs split their row
// tiles over the pool instead.
func forBatch(n int, fn func(lo, hi int, split bool)) {
	if n < parallel.Workers() {
		fn(0, n, true)
		return
	}
	parallel.For(n, 1, func(lo, hi int) { fn(lo, hi, false) })
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
	if grad.Shape != c.outShape {
		panic(fmt.Sprintf("nn: %s backward expects gradient %v, got %v", c.LayerName, c.outShape, grad.Shape))
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
	spatial := c.outShape.H * c.outShape.W
	k2 := c.InC * c.Kernel * c.Kernel
	inElems := c.InC * x.Shape.H * x.Shape.W

	dx := grad.Derive(x.Shape)
	wT := newGemmLHS(k2, c.OutC, c.Weight.W.Data, true)
	// Element n's ∇Wᵀ (k2 × OutC) is partials[n].
	partials := gradPool.get(x.Shape.N * k2 * c.OutC)
	forBatch(x.Shape.N, func(lo, hi int, split bool) {
		cols := packPool.get(k2 * spatial)
		pk := packPool.get(max(gemmPanels(c.OutC)*spatial, gemmPanels(spatial)*c.OutC) * gemmNR)
		for n := lo; n < hi; n++ {
			gout := grad.Data[n*c.OutC*spatial : (n+1)*c.OutC*spatial]
			// ∇Wᵀ[n] = cols · ∇y[n]ᵀ  (k2×spatial · spatial×OutC): the
			// transpose is paid on ∇y, K² times smaller than cols.
			c.im2col(x.Data[n*inElems:(n+1)*inElems], x.Shape.H, x.Shape.W, spatial, *cols)
			packBT(spatial, c.OutC, gout, *pk)
			gemmTiles(k2, spatial, c.OutC, *cols, *pk, (*partials)[n*k2*c.OutC:], gemmOverwrite, split)
			// ∇cols = Wᵀ · ∇y[n]  (k2×OutC · OutC×spatial), over cols.
			packB(c.OutC, spatial, gout, *pk)
			gemmTiles(k2, c.OutC, spatial, wT.a, *pk, *cols, gemmOverwrite, split)
			dxn := dx.Data[n*inElems : (n+1)*inElems]
			if dx.Recycled() {
				clear(dxn) // col2im adds into zeros and skips what no tap reads
			}
			c.col2im(*cols, dxn, x.Shape.H, x.Shape.W)
		}
		packPool.put(cols)
		packPool.put(pk)
	})
	wT.release()
	// One add per batch element in ascending n, whichever shard computed
	// it: the op sequence of accumulating ∇y[n]·colsᵀ element by element.
	addTransposed(c.OutC, k2, *partials, c.Weight.Grad.Data)
	gradPool.put(partials)
	c.biasGrad(grad)
	return dx
}

// addTransposed adds into dst (rows × cols) the transpose of every matrix
// in srcs (each cols × rows, back to back), in that order. The rows of
// dst are sharded over the pool sixteen at a time, one cache line of every
// src row, and walked in 32-column tiles so the lines stay in L1 until
// they are used up.
func addTransposed(rows, cols int, srcs, dst []float32) {
	const rowGrain, tile = 16, 32
	parallel.For(rows, rowGrain, func(lo, hi int) {
		for j0 := 0; j0 < cols; j0 += tile {
			j1 := min(j0+tile, cols)
			for src := srcs; len(src) > 0; src = src[rows*cols:] {
				for i := lo; i < hi; i++ {
					row := dst[i*cols : (i+1)*cols]
					for j := j0; j < j1; j++ {
						row[j] += src[j*rows+i]
					}
				}
			}
		}
	})
}

// biasGrad accumulates ∇b: per batch element and channel, the plane summed
// from zero, then one add.
func (c *Conv2D) biasGrad(grad *tensor.Tensor) {
	if c.Bias == nil {
		return
	}
	spatial := grad.Shape.H * grad.Shape.W
	for i := range grad.Shape.N * c.OutC {
		var sum float32
		for _, g := range grad.Data[i*spatial : (i+1)*spatial] {
			sum += g
		}
		c.Bias.Grad.Data[i%c.OutC] += sum
	}
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
	dx := grad.Derive(tensor.Shape{N: sh.N, C: c.InC, H: sh.H, W: sh.W})

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
		wT.mul(spatial, gout, dx.Data[n*c.InC*spatial:(n+1)*c.InC*spatial], gemmOverwrite)
	}
	wT.release()
	addTransposed(c.OutC, c.InC, wgT, c.Weight.Grad.Data)
	c.biasGrad(grad)
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

// panelLine walks one k-row of a matrix stored as panels of nr columns,
// k-major within a panel: run hands out the next columns that are
// contiguous in memory, at most to the panel's edge.
type panelLine struct {
	dst      []float32
	off      int // of the next column
	room     int // columns left in the current panel
	nr, jump int // panel width; from a panel's edge to this row in the next
}

func (p *panelLine) run(cnt int) []float32 {
	n := min(cnt, p.room)
	d := p.dst[p.off : p.off+n]
	p.off += n
	if p.room -= n; p.room == 0 {
		p.off += p.jump
		p.room = p.nr
	}
	return d
}

func (p *panelLine) zero(cnt int) {
	for cnt > 0 {
		d := p.run(cnt)
		clear(d)
		cnt -= len(d)
	}
}

// im2col lowers one batch element x (InC × h × w) into its k2 × spatial
// matrix of receptive fields, stored as panels of nr columns: column s of
// row kk lands at (s/nr)·k2·nr + kk·nr + s%nr, the last panel zero-padded.
// nr = gemmNR is the packed right operand gemmTiles reads, so forward
// never materialises the row-major matrix; nr = spatial is that matrix
// (one panel), backward's left operand. The pad test is hoisted out of the
// inner loop: per output row only the in-bounds ox range is gathered (a
// copy for stride 1), the fringe is zero-filled.
func (c *Conv2D) im2col(x []float32, h, w, nr int, dst []float32) {
	ho, wo := c.outDims(h, w)
	k2 := c.InC * c.Kernel * c.Kernel
	kk := 0
	for ic := range c.InC {
		plane := x[ic*h*w : (ic+1)*h*w]
		for ky := range c.Kernel {
			for kx := range c.Kernel {
				oxLo, oxHi := colRange(wo, w, c.Stride, kx, c.Pad)
				line := panelLine{dst: dst, off: kk * nr, room: nr, nr: nr, jump: (k2 - 1) * nr}
				kk++
				for oy := range ho {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= h {
						line.zero(wo)
						continue
					}
					line.zero(oxLo)
					ix := iy*w + oxLo*c.Stride + kx - c.Pad
					for cnt := oxHi - oxLo; cnt > 0; {
						d := line.run(cnt)
						if c.Stride == 1 {
							copy(d, plane[ix:])
						} else {
							for i := range d {
								d[i] = plane[ix+i*c.Stride]
							}
						}
						ix += len(d) * c.Stride
						cnt -= len(d)
					}
					line.zero(wo - oxHi)
				}
				if line.room < nr {
					line.zero(line.room)
				}
			}
		}
	}
}

// col2im scatters dcols (k2 × spatial, row-major) back into one batch
// element of dx (InC × h × w), accumulating. Pad handling is hoisted like
// im2col's; out-of-range columns are skipped.
func (c *Conv2D) col2im(dcols, dx []float32, h, w int) {
	ho, wo := c.outDims(h, w)
	idx := 0
	for ic := range c.InC {
		plane := dx[ic*h*w : (ic+1)*h*w]
		for ky := range c.Kernel {
			for kx := range c.Kernel {
				oxLo, oxHi := colRange(wo, w, c.Stride, kx, c.Pad)
				for oy := range ho {
					iy := oy*c.Stride + ky - c.Pad
					row := dcols[idx : idx+wo]
					idx += wo
					if iy < 0 || iy >= h {
						continue
					}
					dst := plane[iy*w:]
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
}
