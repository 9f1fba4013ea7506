// Package compress composes the building blocks (sfpr, dct, quant,
// coding) into the activation-compression methods evaluated by the paper:
// the uncompressed baseline, cDMA+ (ZVC), GIST (DPR+BRC+CSR), SFPR-only,
// JPEG-BASE (SFPR+DCT+DIV+RLE) and JPEG-ACT (SFPR+DCT+SH+ZVC), together
// with the per-activation-type policy of Table II.
package compress

import (
	"jpegact/internal/coding"
	"jpegact/internal/dct"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// Pipeline is one configuration of the JPEG activation pipeline:
// SFPR → 8×8 DCT → {DIV | SH} quantization → {RLE | ZVC} coding.
type Pipeline struct {
	DQT      quant.DQT
	UseShift bool    // SH instead of DIV (JPEG-ACT)
	UseZVC   bool    // ZVC instead of RLE (JPEG-ACT)
	S        float64 // SFPR global scale
}

// JPEGAct returns the JPEG-ACT pipeline with the given DQT.
func JPEGAct(d quant.DQT) Pipeline {
	return Pipeline{DQT: d, UseShift: true, UseZVC: true, S: sfpr.DefaultS}
}

// blockGrain is the number of 8×8 blocks one parallel chunk carries
// through the DCT+quantization stage — each block is a few hundred
// float ops, so 16 blocks amortize the goroutine handoff.
const blockGrain = 16

// QuantizeBlocks runs the pipeline through quantization, returning the
// quantized 8×8 blocks, the SFPR scales, and the pad info needed to
// reconstruct. Exposed for the DQT optimizer and entropy analyses. The
// returned block slice comes from the internal scratch pool; callers
// that are done with it can hand it back with ReleaseBlocks to spare
// the next call the allocation (holding on to it is also fine — the
// pool simply refills).
func (p *Pipeline) QuantizeBlocks(x *tensor.Tensor) ([][64]int8, []float32, tensor.PadInfo) {
	info := tensor.BlockPadInfo(x.Shape, dct.BlockSize)
	blkP := getBlocks(info.PaddedElems() / 64)
	return p.quantizeBlocks(x, *blkP)
}

// BorrowBlocks hands out an n-block slice from the scratch pool — the
// same pool QuantizeBlocks draws from — for callers that decode
// quantized blocks from a byte stream instead of producing them (the
// offload codec's coefficient path). Return it with ReleaseBlocks.
// Contents are dirty.
func BorrowBlocks(n int) [][64]int8 {
	return *getBlocks(n)
}

// ReleaseBlocks returns a block slice obtained from QuantizeBlocks to
// the scratch pool. The caller must not touch blocks afterwards.
func ReleaseBlocks(blocks [][64]int8) {
	if blocks == nil {
		return
	}
	putBlocks(&blocks)
}

// BorrowCodes hands out an n-value int8 slice from the scratch pool the
// SFPR code plane of quantizeBlocks comes from, for the offload codec's
// SFPR+ZVC path. Return it with ReleaseCodes. Contents are dirty.
func BorrowCodes(n int) []int8 {
	return *getI8(n)
}

// ReleaseCodes returns a slice obtained from BorrowCodes to the pool.
func ReleaseCodes(codes []int8) {
	putI8(&codes)
}

// quantizeBlocks is QuantizeBlocks with an optional caller-provided
// block slice (the pooled Roundtrip path); blocks is reused when its
// capacity suffices. Blocks shard over the worker pool in contiguous
// index ranges — the software mirror of the paper's multi-CDU
// round-robin — and every block is produced by exactly one worker with
// the serial per-block op order, so the output is bit-identical at any
// worker count.
//
// Each block runs the fused CDU-style kernel: gather the 8×8 tile
// straight from the int8 SFPR codes (zero-filling the pad fringe),
// scaled float32 AAN forward DCT, quantize with the descale factors
// folded into the table. No padded plane is materialized and no
// separate quantization pass runs.
func (p *Pipeline) quantizeBlocks(x *tensor.Tensor, blocks [][64]int8) ([][64]int8, []float32, tensor.PadInfo) {
	info := tensor.BlockPadInfo(x.Shape, dct.BlockSize)
	scales := make([]float32, x.Shape.C)
	valsP := getI8(x.Elems())
	vals := *valsP
	sfpr.CompressInto(x, p.s(), scales, vals)

	bw := info.BlockCols / 8
	nb := (info.BlockRows / 8) * bw
	if cap(blocks) >= nb {
		blocks = blocks[:nb]
	} else {
		blocks = make([][64]int8, nb)
	}
	table := p.foldedForward()
	rows := x.Shape.N * x.Shape.C * x.Shape.H
	w := x.Shape.W
	parallel.For(nb, blockGrain, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			fusedQuantizeBlock(vals, rows, w, bi/bw, bi%bw, &table, &blocks[bi])
		}
	})
	putI8(valsP)
	return blocks, scales, info
}

// ReconstructBlocks inverts QuantizeBlocks: dequantize, inverse DCT,
// clip back to the int8 SFPR code range, undo padding and SFPR scaling.
// Blocks shard over the worker pool exactly as in quantizeBlocks, and
// each block runs fused: folded dequantize → scaled AAN inverse DCT →
// clamp → scatter into the output tensor (pad fringe dropped), so the
// padded plane and the separate unpad+descale pass are gone.
func (p *Pipeline) ReconstructBlocks(blocks [][64]int8, scales []float32, info tensor.PadInfo) *tensor.Tensor {
	sh := info.Orig
	out := tensor.New(sh.N, sh.C, sh.H, sh.W)
	table := p.foldedInverse()
	invScales := planeInvScales(scales, sh)

	bw := info.BlockCols / 8
	parallel.For(len(blocks), blockGrain, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			fusedReconstructBlock(&blocks[bi], &table, bi/bw, bi%bw, sh, invScales, out.Data)
		}
	})
	return out
}

// planeInvScales returns the inverse SFPR scale of each (n, c) plane, 0
// for an all-zero channel — hoisted out of the block loop because blocks
// cross channel boundaries whenever H is not a multiple of 8.
func planeInvScales(scales []float32, sh tensor.Shape) []float32 {
	inv := make([]float32, sh.N*sh.C)
	for nc := range inv {
		if sc := scales[nc%sh.C]; sc != 0 {
			inv[nc] = 1 / (sc * 128)
		}
	}
	return inv
}

// clampCode rounds a reconstructed spatial value to the int8 SFPR code
// grid.
func clampCode(v float32) float32 { return float32(quant.RoundSat32(v)) }

// Roundtrip compresses x through the full pipeline and returns the
// recovered activation plus the compressed byte count (coded stream +
// per-channel scales). The coded stream is actually encoded and decoded,
// so the losslessness of the coding stage is exercised on every call.
// The quantized and decoded block slices come from the scratch pools,
// and the ZVC path encodes straight from the block slice — no flat
// intermediate copy.
func (p *Pipeline) Roundtrip(x *tensor.Tensor) (*tensor.Tensor, int) {
	info := tensor.BlockPadInfo(x.Shape, dct.BlockSize)
	blkP := getBlocks(info.PaddedElems() / 64)
	blocks, scales, info := p.quantizeBlocks(x, *blkP)
	var bytes int
	var decoded [][64]int8
	var decP *[][64]int8
	if p.UseZVC {
		enc := coding.EncodeZVCBlocks(blocks)
		bytes = len(enc)
		decP = getBlocks(len(blocks))
		decoded = *decP
		if err := coding.DecodeZVCBlocksInto(decoded, enc); err != nil {
			panic("compress: ZVC roundtrip failed: " + err.Error())
		}
	} else {
		enc := coding.EncodeJPEGBlocks(blocks)
		bytes = len(enc)
		var err error
		decoded, err = coding.DecodeJPEGBlocks(enc)
		if err != nil {
			panic("compress: JPEG entropy roundtrip failed: " + err.Error())
		}
	}
	bytes += 4 * len(scales)
	out := p.ReconstructBlocks(decoded, scales, info)
	putBlocks(blkP)
	if decP != nil {
		putBlocks(decP)
	}
	return out, bytes
}

func (p *Pipeline) s() float64 {
	if p.S == 0 {
		return sfpr.DefaultS
	}
	return p.S
}
