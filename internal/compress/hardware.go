package compress

import (
	"jpegact/internal/accel"
	"jpegact/internal/dct"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// HardwareJPEGACT is JPEG-ACT backed by the cycle-counted CDU datapath of
// internal/accel instead of the float functional pipeline: SFPR codes are
// blocked through the alignment-buffer layout, pushed through the
// fixed-point DCT → SH → ZVC stages, marshalled into 128 B DMA packets by
// the collector, and decompressed back through the splitter. Use it to
// verify that training under the *hardware* datapath behaves like
// training under the functional simulation, and to account cycles.
type HardwareJPEGACT struct {
	Schedule quant.Schedule
	NumCDU   int
	// TotalCycles accumulates compression-side CDU cycles across calls.
	TotalCycles int64
}

// NewHardwareJPEGACT builds the hardware-backed method with n CDUs.
func NewHardwareJPEGACT(s quant.Schedule, n int) *HardwareJPEGACT {
	return &HardwareJPEGACT{Schedule: s, NumCDU: n}
}

// Name implements Method.
func (h *HardwareJPEGACT) Name() string { return "JPEG-ACT-HW/" + h.Schedule.Name }

// Lossless implements Method.
func (*HardwareJPEGACT) Lossless() bool { return false }

// Compress implements Method with the Table II policy; the conv/sum path
// runs on the accel datapath.
func (h *HardwareJPEGACT) Compress(x *tensor.Tensor, kind Kind, epoch int) Result {
	if kind != KindConv || !JPEGApplicable(x.Shape) {
		// Non-JPEG kinds follow the same policy as the functional method.
		return NewJPEGAct(h.Schedule).Compress(x, kind, epoch)
	}
	orig := x.Bytes()

	// SFPR with per-channel scales, then the padded block layout the
	// alignment buffer sees (§III-C).
	scales := make([]float32, x.Shape.C)
	sfpr.ComputeScales(x, sfpr.DefaultS, scales)
	sc128 := PlaneScales128(scales, x.Shape)
	info := tensor.BlockPadInfo(x.Shape, dct.BlockSize)
	bw := info.BlockCols / 8
	blocks := make([][64]int8, info.PaddedElems()/64)
	var blk dct.Block
	for bi := range blocks {
		GatherBlock(x, sc128, bi/bw, bi%bw, &blk)
		for i, v := range blk {
			blocks[bi][i] = int8(v)
		}
	}

	a := accel.New(h.NumCDU, *h.Schedule.For(epoch))
	stream := a.CompressCodes(blocks)
	h.TotalCycles += int64(stream.Cycles)
	recBlocks, _ := a.DecompressCodes(stream)

	// Drop the pad fringe and undo SFPR.
	out := tensor.New(x.Shape.N, x.Shape.C, x.Shape.H, x.Shape.W)
	invScales := planeInvScales(scales, x.Shape)
	for bi := range recBlocks {
		for i, v := range recBlocks[bi] {
			blk[i] = float32(v)
		}
		ScatterBlock(&blk, bi/bw, bi%bw, x.Shape, invScales, out.Data)
	}

	return Result{
		Recovered:       out,
		CompressedBytes: stream.Bytes + 4*len(scales),
		OriginalBytes:   orig,
	}
}
