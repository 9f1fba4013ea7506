// Package compress names the activation-compression methods evaluated by
// the paper — the uncompressed baseline, cDMA+ (ZVC), GIST (DPR+BRC+CSR),
// SFPR-only, JPEG-BASE (SFPR+DCT+DIV+RLE) and JPEG-ACT (SFPR+DCT+SH+ZVC)
// — states the per-activation-type policy of Table II (Select), and
// composes the building blocks (sfpr, dct, quant, coding) into the JPEG
// pipelines and the CDU datapath the frame codecs of
// internal/offload/codec run.
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
// SFPR → 8×8 DCT → {DIV | SH} quantization → {ZVC (Encode) | RLE
// (EncodeRLE)} coding.
type Pipeline struct {
	DQT      quant.DQT
	UseShift bool    // SH instead of DIV (JPEG-ACT)
	S        float64 // SFPR global scale
}

// JPEGAct returns the JPEG-ACT pipeline (SH, then Encode's ZVC) with the
// given DQT.
func JPEGAct(d quant.DQT) Pipeline {
	return Pipeline{DQT: d, UseShift: true, S: sfpr.DefaultS}
}

// blockGrain is the number of 8×8 blocks one parallel chunk of the
// blocks view carries — each block is a few hundred float ops, so 16
// blocks amortize the goroutine handoff.
const blockGrain = 16

// shardBlocks is the number of 8×8 blocks in one shard of the ZVC
// stream: the fused drivers quantize and code, or decode and
// reconstruct, one shard per parallel task.
const shardBlocks = coding.ZVCShard / 64

// Encode runs x through the JPEG-ACT pipeline — SFPR → 8×8 DCT → SH →
// ZVC — and returns the coded stream and the per-channel SFPR scales.
// It is the fused encode driver: each shard's blocks are gathered
// straight from x with the SFPR cast applied per element, transformed,
// quantized and sized in one parallel pass, then coded into their
// window of the exactly-sized stream in a second (coding.
// EncodeZVCBlocksFill). No int8 code plane is materialized; the block
// array between the two passes is pooled. Every block is produced by
// exactly one worker in the serial per-block op order, so the bytes are
// identical at any worker count.
func (p *Pipeline) Encode(x *tensor.Tensor) (payload []byte, scales []float32) {
	scales = p.scales(x)
	blkP := getBlocks(tensor.BlockPadInfo(x.Shape, dct.BlockSize).PaddedElems() / 64)
	payload = coding.EncodeZVCBlocksFill(*blkP, p.quantizer(x, scales, *blkP))
	putBlocks(blkP)
	return payload, scales
}

// DecodeInto inverts Encode into dst, whose shape is x's: the fused
// decode driver. Each shard of the stream decodes in parallel one block
// at a time into a stack buffer, which is dequantized, inverse-
// transformed and scattered into dst with the SFPR scale undone
// (fusedReconstructBlock) — no block array, no code plane, and every
// element of dst written exactly once, so dst may hold anything.
func (p *Pipeline) DecodeInto(payload []byte, scales []float32, dst *tensor.Tensor) error {
	sh := dst.Shape
	info := tensor.BlockPadInfo(sh, dct.BlockSize)
	bw, nb := info.BlockCols/8, info.PaddedElems()/64
	table := p.foldedInverse()
	invScales := planeInvScales(scales, sh)
	return coding.DecodeZVCShards(payload, nb*64, func(s, pos int) bool {
		var q [64]int8
		ok := true
		for bi := s * shardBlocks; bi < min((s+1)*shardBlocks, nb) && ok; bi++ {
			if pos, ok = coding.DecodeZVCRun(q[:], payload, pos); ok {
				fusedReconstructBlock(&q, &table, bi/bw, bi%bw, sh, invScales, dst.Data)
			}
		}
		return ok
	})
}

// QuantizeBlocks runs the pipeline through quantization, returning the
// quantized 8×8 blocks, the SFPR scales, and the pad info needed to
// reconstruct: the blocks view of Encode, on the same per-block kernel,
// for the DQT optimizer. The returned block slice comes from the
// internal scratch pool; callers that are done with it can hand it back
// with ReleaseBlocks to spare the next call the allocation (holding on
// to it is also fine — the pool simply refills).
func (p *Pipeline) QuantizeBlocks(x *tensor.Tensor) ([][64]int8, []float32, tensor.PadInfo) {
	info := tensor.BlockPadInfo(x.Shape, dct.BlockSize)
	scales := p.scales(x)
	blocks := *getBlocks(info.PaddedElems() / 64)
	parallel.For(len(blocks), blockGrain, p.quantizer(x, scales, blocks))
	return blocks, scales, info
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

// BorrowCodes hands out an n-value int8 slice from the scratch pool, for
// the offload codec's SFPR+ZVC encode. Return it with ReleaseCodes.
// Contents are dirty.
func BorrowCodes(n int) []int8 {
	return *getI8(n)
}

// ReleaseCodes returns a slice obtained from BorrowCodes to the pool.
func ReleaseCodes(codes []int8) {
	putI8(&codes)
}

// scales returns x's per-channel SFPR scales (Eqn. 4).
func (p *Pipeline) scales(x *tensor.Tensor) []float32 {
	scales := make([]float32, x.Shape.C)
	sfpr.ComputeScales(x, p.s(), scales)
	return scales
}

// quantizer returns the per-shard body both encode paths run: it writes
// blocks[lo:hi] of x with the fused CDU-style kernel (fusedQuantizeBlock).
func (p *Pipeline) quantizer(x *tensor.Tensor, scales []float32, blocks [][64]int8) func(lo, hi int) {
	bw := tensor.BlockPadInfo(x.Shape, dct.BlockSize).BlockCols / 8
	table := p.foldedForward()
	sc128 := PlaneScales128(scales, x.Shape)
	return func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			fusedQuantizeBlock(x, sc128, bi/bw, bi%bw, &table, &blocks[bi])
		}
	}
}

// ReconstructBlocks inverts QuantizeBlocks: the blocks view of
// DecodeInto, into a fresh tensor.
func (p *Pipeline) ReconstructBlocks(blocks [][64]int8, scales []float32, info tensor.PadInfo) *tensor.Tensor {
	sh := info.Orig
	out := tensor.New(sh.N, sh.C, sh.H, sh.W)
	p.reconstructInto(blocks, scales, info, out.Data)
	return out
}

// reconstructInto writes every element of the tensor blocks describe
// into dst: blocks shard over the worker pool, each one
// fusedReconstructBlock.
func (p *Pipeline) reconstructInto(blocks [][64]int8, scales []float32, info tensor.PadInfo, dst []float32) {
	sh := info.Orig
	table := p.foldedInverse()
	invScales := planeInvScales(scales, sh)
	bw := info.BlockCols / 8
	parallel.For(len(blocks), blockGrain, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			fusedReconstructBlock(&blocks[bi], &table, bi/bw, bi%bw, sh, invScales, dst)
		}
	})
}

// EncodeRLE is Encode with the JPEG entropy coder (RLE + Huffman,
// JPEG-BASE's back end) in place of ZVC: the blocks view, then
// coding.EncodeJPEGBlocks.
func (p *Pipeline) EncodeRLE(x *tensor.Tensor) (payload []byte, scales []float32) {
	blocks, scales, _ := p.QuantizeBlocks(x)
	payload = coding.EncodeJPEGBlocks(blocks)
	ReleaseBlocks(blocks)
	return payload, scales
}

// DecodeRLEInto inverts EncodeRLE into dst, whose shape is x's; every
// element of dst is written. A stream that does not hold exactly the
// shape's blocks is corrupt.
func (p *Pipeline) DecodeRLEInto(payload []byte, scales []float32, dst *tensor.Tensor) error {
	blocks, err := coding.DecodeJPEGBlocks(payload)
	if err != nil {
		return err
	}
	info := tensor.BlockPadInfo(dst.Shape, dct.BlockSize)
	if len(blocks) != info.PaddedElems()/64 {
		return coding.ErrCorrupt
	}
	p.reconstructInto(blocks, scales, info, dst.Data)
	return nil
}

// PlaneScales128 returns float64(scale)·128 of each (n, c) plane: the
// factor the SFPR cast multiplies an element by (see GatherBlock), hoisted
// out of the block loop because blocks cross channel boundaries whenever
// H is not a multiple of 8.
func PlaneScales128(scales []float32, sh tensor.Shape) []float64 {
	sc := make([]float64, sh.N*sh.C)
	for nc := range sc {
		sc[nc] = float64(scales[nc%sh.C]) * 128
	}
	return sc
}

// planeInvScales returns the inverse SFPR scale of each (n, c) plane, 0
// for an all-zero channel, hoisted like PlaneScales128.
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

func (p *Pipeline) s() float64 {
	if p.S == 0 {
		return sfpr.DefaultS
	}
	return p.S
}
