package codec

import (
	"errors"

	"jpegact/internal/frame"
	"jpegact/internal/freqdomain"
)

// ErrNoCoefficients reports that a frame has no quantized-coefficient
// representation — only JPEG-ACT frames carry DCT blocks. Callers fall
// back to the full Decode path.
var ErrNoCoefficients = errors.New("codec: frame has no coefficient representation")

// DecodeCoefficients decodes a JPEG-ACT frame only as far as its
// quantized coefficient blocks, skipping the inverse DCT and the spatial
// tensor entirely. The blocks land in a pooled slice borrowed from the
// compress scratch pool; the returned plane owns it and Release hands it
// back. Frames of any other codec return ErrNoCoefficients. Like Decode,
// this is a pure deterministic function of (DQT, S, frame).
func (p Pipeline) DecodeCoefficients(f *frame.Frame) (*freqdomain.Plane, error) {
	if f.Codec != frame.CodecJPEG {
		return nil, ErrNoCoefficients
	}
	blocks, info, err := decodeBlocks(f)
	if err != nil {
		return nil, err
	}
	return freqdomain.NewPlane(blocks, f.Scales, info, p.DQT, true, p.S), nil
}
