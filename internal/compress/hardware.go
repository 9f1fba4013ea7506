package compress

import (
	"sync/atomic"

	"jpegact/internal/accel"
	"jpegact/internal/dct"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// HardwareJPEGACT is JPEG-ACT backed by the cycle-counted CDU datapath of
// internal/accel instead of the float pipeline: SFPR codes are blocked
// through the alignment-buffer layout, pushed through the fixed-point
// DCT → SH → ZVC stages, marshalled into 128 B DMA packets by the
// collector, and decompressed back through the splitter. Use it to
// verify that training under the *hardware* datapath behaves like
// training under the float pipeline, and to account cycles.
type HardwareJPEGACT struct {
	sealed
	Schedule quant.Schedule
	NumCDU   int
	// TotalCycles accumulates compression-side CDU cycles across
	// encodes, which may run concurrently.
	TotalCycles atomic.Int64
}

// NewHardwareJPEGACT builds the hardware-backed method with n CDUs.
func NewHardwareJPEGACT(s quant.Schedule, n int) *HardwareJPEGACT {
	return &HardwareJPEGACT{Schedule: s, NumCDU: n}
}

// Name implements Method.
func (h *HardwareJPEGACT) Name() string { return "JPEG-ACT-HW/" + h.Schedule.Name }

// EncodeCDU runs x through the CDU datapath under table d and SFPR scale
// s: SFPR with per-channel scales, the padded block layout the alignment
// buffer sees (§III-C), then the DCT → SH → ZVC stages and the
// collector. It returns the DMA payload (accel.Stream.Payload) and the
// scales, and adds the compression-side cycles to TotalCycles.
func (h *HardwareJPEGACT) EncodeCDU(x *tensor.Tensor, d quant.DQT, s float64) (payload []byte, scales []float32) {
	scales = make([]float32, x.Shape.C)
	sfpr.ComputeScales(x, s, scales)
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
	stream := accel.New(h.NumCDU, d).CompressCodes(blocks)
	h.TotalCycles.Add(int64(stream.Cycles))
	return stream.Payload(), scales
}

// DecodeCDUInto inverts EncodeCDU into dst, whose shape is x's: the
// splitter, the inverse SH and DCT stages, then the pad fringe dropped
// and SFPR undone. Every element of dst is written.
func DecodeCDUInto(payload []byte, scales []float32, d quant.DQT, dst *tensor.Tensor) error {
	info := tensor.BlockPadInfo(dst.Shape, dct.BlockSize)
	stream, err := accel.StreamOf(payload, info.PaddedElems()/64)
	if err != nil {
		return err
	}
	recBlocks, _ := accel.New(1, d).DecompressCodes(stream)
	bw := info.BlockCols / 8
	invScales := planeInvScales(scales, dst.Shape)
	var blk dct.Block
	for bi := range recBlocks {
		for i, v := range recBlocks[bi] {
			blk[i] = float32(v)
		}
		ScatterBlock(&blk, bi/bw, bi%bw, dst.Shape, invScales, dst.Data)
	}
	return nil
}
