package codec

// The gradient codec for the data-parallel exchange: weight gradients
// are signed, near-Gaussian and carry no spatial structure, so the 8×8
// DCT path is useless to them. They ship as raw float32 values
// (CodecGradRaw), lossless, which is what lets the all-reduce stay
// bit-exact by construction. Select never chooses it — gradients are
// not activations — and the caller names it through EncodeGradient.

import (
	"encoding/binary"
	"fmt"
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/tensor"
)

// EncodeGradient frames a flattened gradient chunk with the gradient
// codec c, which must be CodecGradRaw, bypassing the Table II activation
// policy.
func (p Pipeline) EncodeGradient(c frame.Codec, x *tensor.Tensor) (Encoded, error) {
	if c != frame.CodecGradRaw {
		return Encoded{}, fmt.Errorf("codec: %s is not a gradient codec", c)
	}
	f := &frame.Frame{Codec: frame.CodecGradRaw, Kind: uint8(compress.KindGradient), Shape: x.Shape}
	f.Payload = make([]byte, 4*len(x.Data))
	for i, v := range x.Data {
		binary.LittleEndian.PutUint32(f.Payload[4*i:], math.Float32bits(v))
	}
	return Encoded{Frame: f}, nil
}

// DecodeGradientInto decodes a gradient frame directly into dst,
// bypassing the per-chunk tensor allocation of Decode — the exchange's
// hot path runs once per chunk per microbatch per step, so the caller
// pools dst. dst must hold exactly the frame's element count.
func (p Pipeline) DecodeGradientInto(f *frame.Frame, dst []float32) error {
	n := f.Shape.Elems()
	switch {
	case len(dst) != n:
		return fmt.Errorf("codec: %d-element buffer for a %d-value gradient frame", len(dst), n)
	case f.Codec != frame.CodecGradRaw:
		return fmt.Errorf("codec: %s is not a gradient codec", f.Codec)
	case len(f.Payload) != 4*n:
		return fmt.Errorf("%w: %d payload bytes for %d gradient values", frame.ErrHeader, len(f.Payload), n)
	case len(f.Scales) != 0:
		return fmt.Errorf("%w: %d scales on a raw gradient frame", frame.ErrHeader, len(f.Scales))
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(f.Payload[4*i:]))
	}
	return nil
}

func (p Pipeline) decodeGradRaw(f *frame.Frame) (*tensor.Tensor, error) {
	out := tensor.New(f.Shape.N, f.Shape.C, f.Shape.H, f.Shape.W)
	if err := p.DecodeGradientInto(f, out.Data); err != nil {
		return nil, err
	}
	return out, nil
}
