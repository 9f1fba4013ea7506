package codec

// Gradient codecs for the data-parallel exchange: weight gradients are
// signed, near-Gaussian and carry no spatial structure, so the 8×8 DCT
// path is useless to them — what works is either shipping the raw
// float32 values (CodecGradRaw, lossless: the default, which is what
// lets the all-reduce stay bit-exact by construction) or an
// error-bounded int8 quantization with the ZVC coder reused over the
// quantized values (CodecGradQuant: one max-abs scale per chunk, so
// every element's reconstruction error is at most scale/2).
//
// Both codecs are registered like the activation codecs, but they are
// never chosen by Select — gradients are not activations, and the
// caller picks the codec explicitly through EncodeGradient.

import (
	"encoding/binary"
	"fmt"
	"math"

	"jpegact/internal/coding"
	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/tensor"
)

func init() {
	Register(frame.CodecGradRaw, encodeGradRaw, decodeGradRaw)
	Register(frame.CodecGradQuant, encodeGradQuant, decodeGradQuant)
}

// EncodeGradient compresses a flattened gradient chunk with the given
// gradient codec (CodecGradRaw or CodecGradQuant), bypassing the
// Table II activation policy.
func (p Pipeline) EncodeGradient(c frame.Codec, x *tensor.Tensor) (Encoded, error) {
	if c != frame.CodecGradRaw && c != frame.CodecGradQuant {
		return Encoded{}, fmt.Errorf("codec: %s is not a gradient codec", c)
	}
	return registry[c].encode(p, compress.KindGradient, x)
}

func encodeGradRaw(_ Pipeline, kind compress.Kind, x *tensor.Tensor) (Encoded, error) {
	f := &frame.Frame{Codec: frame.CodecGradRaw, Kind: uint8(kind), Shape: x.Shape}
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
	if n := f.Shape.Elems(); len(dst) != n {
		return fmt.Errorf("codec: %d-element buffer for a %d-value gradient frame", len(dst), n)
	}
	switch f.Codec {
	case frame.CodecGradRaw:
		return decodeGradRawInto(f, dst)
	case frame.CodecGradQuant:
		return decodeGradQuantInto(f, dst)
	}
	return fmt.Errorf("codec: %s is not a gradient codec", f.Codec)
}

func decodeGradRawInto(f *frame.Frame, dst []float32) error {
	n := f.Shape.Elems()
	if len(f.Payload) != 4*n {
		return fmt.Errorf("%w: %d payload bytes for %d gradient values", frame.ErrHeader, len(f.Payload), n)
	}
	if len(f.Scales) != 0 {
		return fmt.Errorf("%w: %d scales on a raw gradient frame", frame.ErrHeader, len(f.Scales))
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(f.Payload[4*i:]))
	}
	return nil
}

func decodeGradRaw(_ Pipeline, f *frame.Frame) (*tensor.Tensor, error) {
	out := tensor.New(f.Shape.N, f.Shape.C, f.Shape.H, f.Shape.W)
	if err := decodeGradRawInto(f, out.Data); err != nil {
		return nil, err
	}
	return out, nil
}

func encodeGradQuant(_ Pipeline, kind compress.Kind, x *tensor.Tensor) (Encoded, error) {
	var maxAbs float32
	for _, v := range x.Data {
		if a := float32(math.Abs(float64(v))); a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	codes := make([]int8, len(x.Data))
	if scale > 0 {
		inv := 1 / scale
		for i, v := range x.Data {
			q := math.RoundToEven(float64(v * inv))
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			codes[i] = int8(q)
		}
	}
	f := &frame.Frame{Codec: frame.CodecGradQuant, Kind: uint8(kind), Shape: x.Shape}
	f.Payload = coding.EncodeZVC(codes)
	f.Scales = []float32{scale}
	return Encoded{Frame: f}, nil
}

func decodeGradQuantInto(f *frame.Frame, dst []float32) error {
	if len(f.Scales) != 1 {
		return fmt.Errorf("%w: %d scales on a quantized gradient frame", frame.ErrHeader, len(f.Scales))
	}
	codes, err := coding.DecodeZVC(f.Payload, f.Shape.Elems())
	if err != nil {
		return err
	}
	scale := f.Scales[0]
	if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) || scale < 0 {
		return fmt.Errorf("%w: gradient scale %v", frame.ErrHeader, scale)
	}
	for i, c := range codes {
		dst[i] = float32(c) * scale
	}
	return nil
}

func decodeGradQuant(_ Pipeline, f *frame.Frame) (*tensor.Tensor, error) {
	out := tensor.New(f.Shape.N, f.Shape.C, f.Shape.H, f.Shape.W)
	if err := decodeGradQuantInto(f, out.Data); err != nil {
		return nil, err
	}
	return out, nil
}
