package codec

import (
	"errors"

	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/tensor"
)

// ErrNoCoefficients reports that a frame has no quantized-coefficient
// representation — only JPEG-ACT frames carry DCT blocks.
var ErrNoCoefficients = errors.New("codec: frame has no coefficient representation")

// CoefBlocks is a JPEG-ACT frame decoded only as far as its quantized 8×8
// DCT coefficient blocks, in (NCH)×W block row-major order. The block
// slice is borrowed from the compress scratch pool; Release returns it.
type CoefBlocks struct {
	blocks [][64]int8
	info   tensor.PadInfo
}

// Release returns the pooled block slice. Safe to call twice.
func (c *CoefBlocks) Release() {
	compress.ReleaseBlocks(c.blocks)
	c.blocks = nil
}

// DecodeCoefficients decodes a JPEG-ACT frame only as far as its
// quantized coefficient blocks, skipping the inverse DCT and the spatial
// tensor: the first half of Decode, timed on its own. Frames of any other
// codec return ErrNoCoefficients.
func (p Pipeline) DecodeCoefficients(f *frame.Frame) (*CoefBlocks, error) {
	if f.Codec != frame.CodecJPEG {
		return nil, ErrNoCoefficients
	}
	blocks, info, err := decodeBlocks(f)
	if err != nil {
		return nil, err
	}
	return &CoefBlocks{blocks: blocks, info: info}, nil
}
