package codec

import (
	"errors"

	"jpegact/internal/coding"
	"jpegact/internal/dct"
	"jpegact/internal/frame"
	"jpegact/internal/tensor"
)

// ErrNoCoefficients reports that a frame has no quantized-coefficient
// representation — only JPEG-ACT frames carry DCT blocks.
var ErrNoCoefficients = errors.New("codec: frame has no coefficient representation")

// CoefBlocks is a JPEG-ACT frame decoded only as far as its quantized 8×8
// DCT coefficient blocks, in (NCH)×W block row-major order.
type CoefBlocks struct {
	blocks [][64]int8
	info   tensor.PadInfo
}

// Release does nothing: the blocks are the CoefBlocks' own, and the
// collector takes them back. It is kept for bench/.
func (c *CoefBlocks) Release() {}

// DecodeCoefficients decodes a JPEG-ACT frame only as far as its
// quantized coefficient blocks, skipping the inverse DCT and the spatial
// tensor: the first half of Decode, timed on its own. Frames of any other
// codec return ErrNoCoefficients.
func (p Pipeline) DecodeCoefficients(f *frame.Frame) (*CoefBlocks, error) {
	if f.Codec != frame.CodecJPEG {
		return nil, ErrNoCoefficients
	}
	info := tensor.BlockPadInfo(f.Shape, dct.BlockSize)
	if err := checkZVCFrame(f, info.PaddedElems()); err != nil {
		return nil, err
	}
	blocks := make([][64]int8, info.PaddedElems()/64)
	if err := coding.DecodeZVCBlocksInto(blocks, f.Payload); err != nil {
		return nil, err
	}
	return &CoefBlocks{blocks: blocks, info: info}, nil
}
