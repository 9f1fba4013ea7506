package compress

import (
	"jpegact/internal/dct"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// Fused per-block codec kernels: the software mirror of the CDU's
// single-pass block pipeline (§III-D), where SFPR codes feed the DCT
// units which feed the quantizer with no intermediate storage. Each 8×8
// tile is gathered straight from the int8 SFPR code plane (the logical
// padded (NCH)×W view is never materialized), transformed with the
// scaled float32 AAN DCT, and quantized with the descale factors folded
// into the table — one pass per block, no padded float plane, no
// zeroing pass, no float64 bounce.

// foldedForward returns the fused forward-quantizer table for the
// pipeline's backend with the AAN descale factors folded in.
func (p *Pipeline) foldedForward() [64]float32 {
	return p.DQT.FoldedForward(p.UseShift, &dct.AANDescale2D)
}

// foldedInverse returns the fused dequantizer table with the AAN
// prescale factors folded in.
func (p *Pipeline) foldedInverse() [64]float32 {
	return p.DQT.FoldedInverse(p.UseShift, &dct.AANPrescale2D)
}

// GatherBlock loads the 8×8 tile (by, bx) of the logical padded plane
// into blk, reading directly from the int8 code plane (rows × w
// row-major). Tiles fully inside the plane take the unconditional fast
// path; tiles touching the pad fringe zero-fill the out-of-range lanes,
// which is exactly what the padded plane held. With ScatterBlock it is
// the tree's one walk of the §III-C (NCH)×W block layout: the hardware
// datapath and the entropy analysis block their codes through it too.
func GatherBlock(vals []int8, rows, w, by, bx int, blk *dct.Block) {
	r0 := by * 8
	c0 := bx * 8
	if r0+8 <= rows && c0+8 <= w {
		for r := 0; r < 8; r++ {
			src := vals[(r0+r)*w+c0:]
			dst := blk[r*8 : r*8+8]
			dst[0] = float32(src[0])
			dst[1] = float32(src[1])
			dst[2] = float32(src[2])
			dst[3] = float32(src[3])
			dst[4] = float32(src[4])
			dst[5] = float32(src[5])
			dst[6] = float32(src[6])
			dst[7] = float32(src[7])
		}
		return
	}
	nr := rows - r0
	if nr > 8 {
		nr = 8
	}
	nc := w - c0
	if nc > 8 {
		nc = 8
	}
	*blk = dct.Block{}
	for r := 0; r < nr; r++ {
		src := vals[(r0+r)*w+c0:]
		for c := 0; c < nc; c++ {
			blk[r*8+c] = float32(src[c])
		}
	}
}

// fusedQuantizeBlock runs one block through gather → scaled AAN forward
// DCT → folded quantization.
func fusedQuantizeBlock(vals []int8, rows, w, by, bx int, table *[64]float32, out *[64]int8) {
	var blk dct.Block
	GatherBlock(vals, rows, w, by, bx, &blk)
	dct.AANForward8x8(&blk)
	quant.FoldedQuantize((*[64]float32)(&blk), table, out)
}

// fusedReconstructBlock inverts fusedQuantizeBlock for block (by, bx):
// folded dequantization → scaled AAN inverse DCT → ScatterBlock.
func fusedReconstructBlock(q *[64]int8, table *[64]float32, by, bx int, sh tensor.Shape, invScales, out []float32) {
	var blk dct.Block
	quant.FoldedDequantize(q, table, (*[64]float32)(&blk))
	dct.AANInverse8x8(&blk)
	ScatterBlock(&blk, by, bx, sh, invScales, out)
}

// ScatterBlock inverts GatherBlock and SFPR for block (by, bx): each
// spatial value is clamped back to the int8 SFPR code range and written
// into the output tensor with the per-channel inverse SFPR scale
// applied. invScales[nc] is the inverse scale of plane nc (0 for
// all-zero channels, see planeInvScales); pad-fringe lanes are dropped.
// out is the row-major data of the original-shape tensor.
func ScatterBlock(blk *dct.Block, by, bx int, sh tensor.Shape, invScales, out []float32) {
	rows := sh.N * sh.C * sh.H
	w := sh.W
	r0 := by * 8
	c0 := bx * 8
	nr := rows - r0
	if nr > 8 {
		nr = 8
	}
	nc := w - c0
	if nc > 8 {
		nc = 8
	}
	// One division per block, not per row: step the plane index when the
	// row walks off the bottom of a plane.
	plane, left := r0/sh.H, sh.H-r0%sh.H
	for r := 0; r < nr; r++ {
		if left == 0 {
			plane, left = plane+1, sh.H
		}
		left--
		inv := invScales[plane]
		src := blk[r*8 : r*8+nc]
		dst := out[(r0+r)*w+c0:][:nc]
		for c, v := range src {
			dst[c] = clampCode(v) * inv
		}
	}
}
