package nn

import (
	"fmt"

	"jpegact/internal/compress"
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
	outShape    tensor.Shape
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
	}
	ho, wo := c.outDims(x.Shape.H, x.Shape.W)
	c.outShape = tensor.Shape{N: x.Shape.N, C: c.OutC, H: ho, W: wo}
	out := x.Derive(c.outShape)

	k2 := c.InC * c.Kernel * c.Kernel
	spatial := ho * wo
	h, w := x.Shape.H, x.Shape.W
	inElems := c.InC * h * w
	forBatch(x.Shape.N, func(lo, hi int, split bool) {
		pk := packPool.get(gemmPanels(spatial) * k2 * gemmNR)
		xp := c.padBuf(h, w)
		for n := lo; n < hi; n++ {
			// out[n] (OutC × spatial) = W (OutC × k2) · cols (k2 × spatial),
			// cols lowered straight into the panels the tiles read.
			src := c.padded(x.Data[n*inElems:(n+1)*inElems], h, w, xp)
			c.im2colPanels(src, h+2*c.Pad, w+2*c.Pad, ho, wo, *pk)
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
		padPool.put(xp)
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

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.in == nil {
		panic("nn: conv backward before forward")
	}
	if grad.Shape != c.outShape {
		panic(fmt.Sprintf("nn: %s backward expects gradient %v, got %v", c.LayerName, c.outShape, grad.Shape))
	}
	x := c.in.T
	if x == nil {
		panic("nn: conv backward needs saved input values (BRC mask is not enough)")
	}
	ho, wo := c.outShape.H, c.outShape.W
	spatial := ho * wo
	k2 := c.InC * c.Kernel * c.Kernel
	h, w := x.Shape.H, x.Shape.W
	inElems := c.InC * h * w

	dx := grad.Derive(x.Shape)
	wT := newGemmLHS(k2, c.OutC, c.Weight.W.Data, true)
	// Element n's ∇Wᵀ (k2 × OutC) is partials[n].
	partials := gradPool.get(x.Shape.N * k2 * c.OutC)
	forBatch(x.Shape.N, func(lo, hi int, split bool) {
		cols := packPool.get(k2 * spatial)
		pk := packPool.get(max(gemmPanels(c.OutC)*spatial, gemmPanels(spatial)*c.OutC) * gemmNR)
		xp := c.padBuf(h, w)
		for n := lo; n < hi; n++ {
			gout := grad.Data[n*c.OutC*spatial : (n+1)*c.OutC*spatial]
			// ∇Wᵀ[n] = cols · ∇y[n]ᵀ  (k2×spatial · spatial×OutC): the
			// transpose is paid on ∇y, K² times smaller than cols.
			src := c.padded(x.Data[n*inElems:(n+1)*inElems], h, w, xp)
			c.im2colRows(src, h+2*c.Pad, w+2*c.Pad, ho, wo, *cols)
			packBT(spatial, c.OutC, gout, *pk)
			gemmTiles(k2, spatial, c.OutC, *cols, *pk, (*partials)[n*k2*c.OutC:], gemmOverwrite, split)
			// ∇cols = Wᵀ · ∇y[n]  (k2×OutC · OutC×spatial), over cols.
			packB(c.OutC, spatial, gout, *pk)
			gemmTiles(k2, c.OutC, spatial, wT.a, *pk, *cols, gemmOverwrite, split)
			dxn := dx.Data[n*inElems : (n+1)*inElems]
			if dx.Recycled() {
				clear(dxn) // col2im adds into zeros and skips what no tap reads
			}
			c.col2im(*cols, dxn, h, w)
		}
		packPool.put(cols)
		packPool.put(pk)
		padPool.put(xp)
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

// padBuf draws the scratch padded frames one batch element in; nil when the
// layer has no padding and reads x in place.
func (c *Conv2D) padBuf(h, w int) *[]float32 {
	if c.Pad == 0 {
		return nil
	}
	return padPool.get(c.InC * (h + 2*c.Pad) * (w + 2*c.Pad))
}

// padded returns batch element xn (InC × h × w) as the InC × (h+2P) ×
// (w+2P) planes the lowering reads: xn itself without padding, else its
// copy into buf framed by zeros, so no tap needs a bounds test.
func (c *Conv2D) padded(xn []float32, h, w int, buf *[]float32) []float32 {
	if buf == nil {
		return xn
	}
	p, dst := c.Pad, *buf
	wp := w + 2*p
	end := 0 // the first element no row has written
	for ic := range c.InC {
		for y := range h {
			at := (ic*(h+2*p)+y+p)*wp + p
			clear(dst[end:at])
			end = at + copy(dst[at:at+w], xn[(ic*h+y)*w:])
		}
	}
	clear(dst[end:])
	return dst
}

// im2colPanels lowers one padded batch element src (InC planes of hp × wp)
// into its k2 × spatial matrix of receptive fields, stored as the packed
// right operand gemmTiles reads: column s of row kk lands at
// (s/16)·k2·16 + kk·16 + s%16, the last panel zero-padded. Panels are
// written in order, each from its columns' top-left taps: a panel inside
// one output row is one 16-float move per row kk at stride 1 and one
// strided gather at stride 2; any other is gathered tap by tap.
func (c *Conv2D) im2colPanels(src []float32, hp, wp, ho, wo int, dst []float32) {
	k2, spatial, s := c.InC*c.Kernel*c.Kernel, ho*wo, c.Stride
	var offs [gemmNR]int
	for p := range gemmPanels(spatial) {
		cnt := min(gemmNR, spatial-p*gemmNR)
		oy, ox := p*gemmNR/wo, p*gemmNR%wo
		line := cnt == gemmNR && ox+gemmNR <= wo
		for j := range cnt {
			offs[j] = oy*s*wp + ox*s
			if ox++; ox == wo {
				ox, oy = 0, oy+1
			}
		}
		panel := dst[p*k2*gemmNR : (p+1)*k2*gemmNR]
		kk := 0
		for ic := range c.InC {
			for ky := range c.Kernel {
				for kx := range c.Kernel {
					tap := (ic*hp+ky)*wp + kx
					d := (*[gemmNR]float32)(panel[kk*gemmNR:])
					kk++
					switch {
					case line && s == 1:
						*d = *(*[gemmNR]float32)(src[tap+offs[0]:])
					case line && s == 2:
						row := (*[2*gemmNR - 1]float32)(src[tap+offs[0]:])
						for j := range d {
							d[j] = row[2*j]
						}
					default:
						for j, off := range offs[:cnt] {
							d[j] = src[tap+off]
						}
						clear(d[cnt:])
					}
				}
			}
		}
	}
}

// im2colRows lowers one padded batch element into the row-major k2 ×
// spatial matrix, backward's left operand: each (kk, oy) line is one copy,
// or a strided gather, from a padded row.
func (c *Conv2D) im2colRows(src []float32, hp, wp, ho, wo int, dst []float32) {
	s := c.Stride
	i := 0
	for ic := range c.InC {
		for ky := range c.Kernel {
			for kx := range c.Kernel {
				for oy := range ho {
					row := src[(ic*hp+oy*s+ky)*wp+kx:]
					d := dst[i : i+wo]
					i += wo
					if s == 1 {
						copy(d, row)
						continue
					}
					row = row[:(wo-1)*s+1]
					for j := range d {
						d[j] = row[j*s]
					}
				}
			}
		}
	}
}

// col2im scatters dcols (k2 × spatial, row-major) back into one batch
// element of dx (InC × h × w), accumulating in ascending row order. The
// pad test is hoisted per row: pad rows and columns are skipped, and a
// stride-1 row is one add per element over two slices of equal length.
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
						src := row[oxLo:oxHi]
						d := dst[oxLo+kx-c.Pad:][:len(src)]
						for i, v := range src {
							d[i] += v
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
