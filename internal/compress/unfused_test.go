package compress

import (
	"jpegact/internal/dct"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// The unfused reference codec: the padded-plane block path the fused
// kernels replaced, kept only as the oracle fused_test.go compares
// against. It shares as little as it can with production — scales and
// codes come from sfpr's two-pass ComputeScales + QuantizeInto (production
// runs the fused per-channel CompressInto), blocks are copied off a
// materialized padded (NCH)×W float plane (production gathers from the
// int8 codes), and every rounding is the branchy round-half-away-and-clip
// the shared branch-free helper replaced. What it does share is the AAN
// transform, which dct's own tests pin to the copy-through original.

// refRound is the branchy original of quant.RoundSat32.
func refRound(v float32) float32 {
	var q int32
	if v >= 0 {
		q = int32(v + 0.5)
	} else {
		q = int32(v - 0.5)
	}
	if q > 127 {
		q = 127
	}
	if q < -128 {
		q = -128
	}
	return float32(q)
}

// quantizeBlocksUnfused is the reference for Pipeline.QuantizeBlocks:
// spread the SFPR codes onto a zero-padded float plane, then per block
// copy → AAN forward → multiply by the folded table → round and clip.
func (p *Pipeline) quantizeBlocksUnfused(x *tensor.Tensor) ([][64]int8, []float32, tensor.PadInfo) {
	info := tensor.BlockPadInfo(x.Shape, dct.BlockSize)
	scales := make([]float32, x.Shape.C)
	sfpr.ComputeScales(x, p.s(), scales)
	vals := make([]int8, x.Elems())
	sfpr.QuantizeInto(x, scales, vals)

	cols := info.BlockCols
	sh := info.Orig
	rows := sh.N * sh.C * sh.H
	padded := make([]float32, info.PaddedElems())
	for r := 0; r < rows; r++ {
		for j, v := range vals[r*sh.W : (r+1)*sh.W] {
			padded[r*cols+j] = float32(v)
		}
	}

	bw := cols / 8
	table := p.foldedForward()
	blocks := make([][64]int8, (info.BlockRows/8)*bw)
	for bi := range blocks {
		var blk dct.Block
		by, bx := bi/bw, bi%bw
		for r := 0; r < 8; r++ {
			copy(blk[r*8:(r+1)*8], padded[(by*8+r)*cols+bx*8:])
		}
		dct.AANForward8x8(&blk)
		for i, c := range blk {
			blocks[bi][i] = int8(refRound(c * table[i]))
		}
	}
	return blocks, scales, info
}

// reconstructBlocksUnfused is the reference for
// Pipeline.ReconstructBlocks: blocks land on a padded plane, then a
// separate pass strips the padding and applies the inverse SFPR scale.
func (p *Pipeline) reconstructBlocksUnfused(blocks [][64]int8, scales []float32, info tensor.PadInfo) *tensor.Tensor {
	sh := info.Orig
	out := tensor.New(sh.N, sh.C, sh.H, sh.W)
	cols := info.BlockCols
	padded := make([]float32, info.PaddedElems())
	bw := cols / 8
	table := p.foldedInverse()
	for bi := range blocks {
		var blk dct.Block
		quant.FoldedDequantize(&blocks[bi], &table, (*[64]float32)(&blk))
		dct.AANInverse8x8(&blk)
		by, bx := bi/bw, bi%bw
		for r := 0; r < 8; r++ {
			dst := padded[(by*8+r)*cols+bx*8:]
			for cc := 0; cc < 8; cc++ {
				dst[cc] = refRound(blk[r*8+cc])
			}
		}
	}
	hw := sh.H * sh.W
	for nc := 0; nc < sh.N*sh.C; nc++ {
		var inv float32
		if sc := scales[nc%sh.C]; sc != 0 {
			inv = 1 / (sc * 128)
		}
		for row := 0; row < sh.H; row++ {
			src := padded[(nc*sh.H+row)*cols:]
			dst := out.Data[nc*hw+row*sh.W:][:sh.W]
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
	}
	return out
}
