package codec

// The gradient codec for the data-parallel exchange: weight gradients
// are signed, near-Gaussian and carry no spatial structure, so the 8×8
// DCT path is useless to them. They ship as raw float32 values
// (CodecGradRaw, the codec the uncompressed baseline stores activations
// with), lossless, which is what lets the all-reduce stay bit-exact by
// construction. The caller names it through EncodeGradient, bypassing
// the activation policy.

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
	f := &frame.Frame{Codec: frame.CodecGradRaw, Kind: uint8(compress.KindGradient), Shape: x.Shape, Payload: encodeRaw(x.Data)}
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
	}
	if err := check(f); err != nil {
		return err
	}
	decodeRaw(f.Payload, dst)
	return nil
}

// encodeRaw is the raw codec's payload: each value's little-endian bits.
func encodeRaw(vals []float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// decodeRaw inverts encodeRaw into dst, of the payload's value count.
func decodeRaw(payload []byte, dst []float32) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
}
