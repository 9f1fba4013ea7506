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
// depends on which shard ran it. An element is lowered, multiplied and
// scattered one block of convBlock output positions at a time, so its
// scratch is sized by the block, not by the image.
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

// convBlock is how many output positions a conv pass lowers, multiplies
// and scatters at a time: eight gemmNR-column panels. Every buffer a pass
// draws is sized by the block, or by the plane where that is smaller,
// never by H×W.
const convBlock = 8 * gemmNR

// blocks returns how many blocks cover spatial output positions, and how
// wide the widest is.
func blocks(spatial int) (n, width int) {
	return (spatial + convBlock - 1) / convBlock, min(spatial, convBlock)
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
	nb, bw := blocks(spatial)
	// out[n] (OutC × spatial) = W (OutC × k2) · cols (k2 × spatial), a block
	// of columns at a time, each lowered straight into the panels the tiles
	// read.
	forBatch(x.Shape.N, convPass{nb, parallel.Grain(c.OutC*k2*convBlock, gemmMinWork), func(n, lo, hi int) {
		xn := x.Data[n*inElems : (n+1)*inElems]
		dst := out.Data[n*c.OutC*spatial : (n+1)*c.OutC*spatial]
		pk := getScratch(gemmPanels(bw) * k2 * gemmNR)
		for b := lo; b < hi; b++ {
			b0 := b * convBlock
			cnt := min(convBlock, spatial-b0)
			c.im2colPanels(xn, h, w, b0, cnt, pk)
			gemmTileRows(0, c.OutC, k2, cnt, spatial, c.Weight.W.Data, pk, dst[b0:], gemmOverwrite)
			if c.Bias != nil {
				for oc, bias := range c.Bias.W.Data {
					row := dst[oc*spatial+b0:][:cnt]
					for i := range row {
						row[i] += bias
					}
				}
			}
		}
		scratch.Put(pk)
	}})
	return &ActRef{Name: c.LayerName + ".out", Kind: compress.KindConv, T: out}
}

// convPass is one pass of a conv layer over a batch element: run(n, lo,
// hi) does items [lo, hi) of element n, and no two items write the same
// result, so the items may run on different shards.
type convPass struct {
	items, grain int
	run          func(n, lo, hi int)
}

// forBatch runs every pass over each of the n elements of a batch. With at
// least one element per worker the elements are the shards, handed out one
// at a time, and each runs its passes whole on the calling shard; a
// smaller batch runs its elements in order, each pass's items sharded over
// the pool grain at a time.
func forBatch(n int, passes ...convPass) {
	if n >= parallel.Workers() {
		parallel.For(n, 1, func(lo, hi int) {
			for e := lo; e < hi; e++ {
				for _, p := range passes {
					p.run(e, 0, p.items)
				}
			}
		})
		return
	}
	for e := range n {
		for _, p := range passes {
			parallel.For(p.items, p.grain, func(lo, hi int) { p.run(e, lo, hi) })
		}
	}
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
	spatial := c.outShape.H * c.outShape.W
	taps := c.Kernel * c.Kernel
	k2 := c.InC * taps
	h, w := x.Shape.H, x.Shape.W
	inElems := c.InC * h * w
	outElems := c.OutC * spatial
	nb, bw := blocks(spatial)

	dx := grad.Derive(x.Shape)
	wT := getScratch(k2 * c.OutC)
	packAT(c.OutC, k2, c.Weight.W.Data, wT)
	// Element n's ∇Wᵀ (k2 × OutC) is partials[n].
	partials := getScratch(x.Shape.N * k2 * c.OutC)
	forBatch(x.Shape.N,
		// Rows [lo, hi) of ∇Wᵀ[n] = cols · ∇y[n]ᵀ (k2×spatial ·
		// spatial×OutC; the transpose is paid on ∇y, K² times smaller than
		// cols), over ascending blocks: the first overwrites, the rest
		// accumulate, so each element's chain over spatial is the unblocked one.
		convPass{k2, gemmRowGrain(spatial, c.OutC), func(n, lo, hi int) {
			xn := x.Data[n*inElems : (n+1)*inElems]
			gout := grad.Data[n*outElems : (n+1)*outElems]
			cols := getScratch((hi - lo) * bw)
			pk := getScratch(gemmPanels(c.OutC) * bw * gemmNR)
			mode := gemmOverwrite
			for b0 := 0; b0 < spatial; b0 += convBlock {
				cnt := min(convBlock, spatial-b0)
				c.im2colRows(xn, h, w, lo, hi, b0, cnt, cols)
				packBT(cnt, c.OutC, spatial, gout[b0:], pk)
				gemmTileRows(0, hi-lo, cnt, c.OutC, c.OutC, cols, pk, partials[(n*k2+lo)*c.OutC:], mode)
				mode = gemmAccumulate
			}
			scratch.Put(cols)
			scratch.Put(pk)
		}},
		// ∇cols = Wᵀ · ∇y[n] (k2×OutC · OutC×spatial) for the rows of input
		// channels [lo, hi), scattered into their planes over descending
		// blocks: a larger output position always reaches an input through
		// a smaller (ky, kx) tap, so every ∇x element adds in the order one
		// col2im of the whole matrix would.
		convPass{c.InC, parallel.Grain(taps*c.OutC*spatial, gemmMinWork), func(n, lo, hi int) {
			gout := grad.Data[n*outElems : (n+1)*outElems]
			dxn := dx.Data[n*inElems+lo*h*w : n*inElems+hi*h*w]
			if dx.Recycled() {
				clear(dxn) // col2im adds into zeros and skips what no tap reads
			}
			rows := (hi - lo) * taps
			dcols := getScratch(rows * bw)
			pk := getScratch(gemmPanels(bw) * c.OutC * gemmNR)
			for b := nb - 1; b >= 0; b-- {
				b0 := b * convBlock
				cnt := min(convBlock, spatial-b0)
				packB(c.OutC, cnt, spatial, gout[b0:], pk)
				gemmTileRows(0, rows, c.OutC, cnt, cnt, wT[lo*taps*c.OutC:], pk, dcols, gemmOverwrite)
				c.col2im(dcols, dxn, h, w, b0, cnt)
			}
			scratch.Put(dcols)
			scratch.Put(pk)
		}})
	scratch.Put(wT)
	// One add per batch element in ascending n, whichever shard computed
	// it: the op sequence of accumulating ∇y[n]·colsᵀ element by element.
	addTransposed(c.OutC, k2, partials, c.Weight.Grad.Data)
	scratch.Put(partials)
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

// inside returns the j in [0, n) whose input column ix + j·s lies inside
// [0, w): the stretch of a tap's n output columns that reads the input
// rather than the padding. It divides only at the input's edges.
func inside(ix, s, w, n int) (int, int) {
	if ix >= 0 && ix+(n-1)*s < w {
		return 0, n
	}
	lo, hi := -ix, w-ix
	if s != 1 {
		lo, hi = (lo+s-1)/s, (hi+s-1)/s
	}
	lo = min(max(lo, 0), n)
	return lo, max(min(hi, n), lo)
}

// im2colPanels lowers output positions [b0, b0+cnt) of one batch element
// xn (InC planes of h × w) into their k2 × cnt matrix of receptive
// fields, stored as the packed right operand gemmTileRows reads: column j
// of row kk lands at (j/16)·k2·16 + kk·16 + j%16, the last panel
// zero-padded, and a tap in the padding reads zero. Panels are written in
// order. A panel inside one output row at stride 1 or 2 is lowered a tap
// line at a time (lineTaps); any other is gathered tap by tap from its
// columns' top-left taps.
func (c *Conv2D) im2colPanels(xn []float32, h, w, b0, cnt int, dst []float32) {
	_, wo := c.outDims(h, w)
	k2, s := c.InC*c.Kernel*c.Kernel, c.Stride
	var iy0, ix0 [gemmNR]int
	for p := range gemmPanels(cnt) {
		m := min(gemmNR, cnt-p*gemmNR)
		oy, ox := (b0+p*gemmNR)/wo, (b0+p*gemmNR)%wo
		panel := dst[p*k2*gemmNR : (p+1)*k2*gemmNR]
		if m == gemmNR && ox+gemmNR <= wo && s <= 2 {
			c.lineTaps(xn, h, w, oy*s-c.Pad, ox*s-c.Pad, panel)
			continue
		}
		for j, y, x := 0, oy, ox; j < m; j++ {
			iy0[j], ix0[j] = y*s-c.Pad, x*s-c.Pad
			if x++; x == wo {
				x, y = 0, y+1
			}
		}
		kk := 0
		for ic := range c.InC {
			plane := xn[ic*h*w : (ic+1)*h*w]
			for ky := range c.Kernel {
				for kx := range c.Kernel {
					d := (*[gemmNR]float32)(panel[kk*gemmNR:])
					kk++
					*d = [gemmNR]float32{}
					for j := range m {
						if y, x := iy0[j]+ky, ix0[j]+kx; uint(y) < uint(h) && uint(x) < uint(w) {
							d[j] = plane[y*w+x]
						}
					}
				}
			}
		}
	}
}

// lineTaps lowers one panel of gemmNR output positions inside one output
// row, at stride 1 or 2, whose first tap reads input (iy, ix), a tap line
// at a time: zeros where the line's input row is padding, else one
// 16-float move at stride 1 or one strided gather at stride 2, clipped
// where the line crosses the padding.
func (c *Conv2D) lineTaps(xn []float32, h, w, iy, ix int, panel []float32) {
	s, kk := c.Stride, 0
	for ic := range c.InC {
		plane := xn[ic*h*w : (ic+1)*h*w]
		for ky := range c.Kernel {
			taps := panel[kk*gemmNR : (kk+c.Kernel)*gemmNR]
			kk += c.Kernel
			y := iy + ky
			if y < 0 || y >= h {
				clear(taps)
				continue
			}
			row := plane[y*w : (y+1)*w]
			for kx := range c.Kernel {
				d := (*[gemmNR]float32)(taps[kx*gemmNR:])
				x := ix + kx
				switch {
				case x >= 0 && x+(gemmNR-1)*s < w && s == 1:
					*d = *(*[gemmNR]float32)(row[x:])
				case x >= 0 && x+(gemmNR-1)*s < w:
					src := (*[2*gemmNR - 1]float32)(row[x:])
					for j := range d {
						d[j] = src[2*j]
					}
				default:
					*d = [gemmNR]float32{}
					lo, hi := inside(x, s, w, gemmNR)
					if lo == hi {
						continue
					}
					src := row[x+lo*s:]
					if s == 1 {
						copy(d[lo:hi], src)
						continue
					}
					for j := range d[lo:hi] {
						d[lo+j] = src[2*j]
					}
				}
			}
		}
	}
}

// im2colRows lowers rows [lo, hi) of one batch element's k2 × spatial
// matrix of receptive fields, columns [b0, b0+cnt), into dst ((hi−lo) ×
// cnt, row-major), backward's left operand: the stretch of a row that one
// output row covers is one copy, or a strided gather, from an input row,
// and its taps in the padding are zero.
func (c *Conv2D) im2colRows(xn []float32, h, w, lo, hi, b0, cnt int, dst []float32) {
	_, wo := c.outDims(h, w)
	k, s := c.Kernel, c.Stride
	oy0, ox0 := b0/wo, b0%wo
	ic, ky, kx := lo/(k*k), lo/k%k, lo%k
	for i := range hi - lo {
		plane := xn[ic*h*w : (ic+1)*h*w]
		row := dst[i*cnt : (i+1)*cnt]
		for at, oy, ox := 0, oy0, ox0; at < cnt; oy, ox = oy+1, 0 {
			n := min(wo-ox, cnt-at)
			d := row[at : at+n]
			at += n
			iy, ix := oy*s+ky-c.Pad, ox*s+kx-c.Pad
			l, r := inside(ix, s, w, n)
			if iy < 0 || iy >= h || l == r {
				clear(d)
				continue
			}
			clear(d[:l])
			clear(d[r:])
			src := plane[iy*w+ix+l*s:]
			if s == 1 {
				copy(d[l:r], src)
				continue
			}
			for j := range d[l:r] {
				d[l+j] = src[j*s]
			}
		}
		if kx++; kx == k {
			if kx, ky = 0, ky+1; ky == k {
				ky, ic = 0, ic+1
			}
		}
	}
}

// col2im adds a block of ∇cols — rows of the input planes dx holds, each
// the block's cnt output positions from b0 on — into those planes (h × w
// each), in ascending row order. The pad test is hoisted per stretch of
// output row: taps in the padding are skipped, and a stride-1 stretch is
// one add per element over two slices of equal length.
func (c *Conv2D) col2im(dcols, dx []float32, h, w, b0, cnt int) {
	_, wo := c.outDims(h, w)
	s := c.Stride
	oy0, ox0 := b0/wo, b0%wo
	idx := 0
	for ic := range len(dx) / (h * w) {
		plane := dx[ic*h*w : (ic+1)*h*w]
		for ky := range c.Kernel {
			for kx := range c.Kernel {
				row := dcols[idx : idx+cnt]
				idx += cnt
				for at, oy, ox := 0, oy0, ox0; at < cnt; oy, ox = oy+1, 0 {
					n := min(wo-ox, cnt-at)
					iy, ix := oy*s+ky-c.Pad, ox*s+kx-c.Pad
					lo, hi := inside(ix, s, w, n)
					src := row[at+lo : at+hi]
					at += n
					if iy < 0 || iy >= h || lo == hi {
						continue
					}
					dst := plane[iy*w+ix+lo*s:]
					if s == 1 {
						d := dst[:len(src)]
						for i, v := range src {
							d[i] += v
						}
						continue
					}
					for i, v := range src {
						dst[i*s] += v
					}
				}
			}
		}
	}
}
