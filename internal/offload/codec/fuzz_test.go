package codec

import (
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// FuzzDecodeCoefficients feeds arbitrary container bytes through the
// frame decoder into the coefficient path. Malformed input must never
// panic and must never leak a pooled block slice: every error exit in
// DecodeCoefficients releases the borrowed blocks, and the success exit
// hands ownership to the result, which we release here.
func FuzzDecodeCoefficients(f *testing.F) {
	r := tensor.NewRNG(9)
	x := data.ActivationTensor(r, 1, 2, 16, 16, 0.5, 1.0)
	p := New(quant.OptL())
	enc, err := p.Encode(compress.KindConv, x)
	if err != nil {
		f.Fatal(err)
	}
	valid := frame.EncodeFrame(enc.Frame)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	// 2²⁸ elements in the header, one byte of payload.
	f.Add(frame.EncodeFrame(hugeShapeFrame(f, frame.CodecJPEG)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := frame.DecodeFrame(raw)
		if err != nil {
			return
		}
		cb, err := p.DecodeCoefficients(fr)
		if err != nil {
			return
		}
		if cb.info.Orig != fr.Shape {
			t.Fatalf("blocks of shape %v, frame shape %v", cb.info.Orig, fr.Shape)
		}
		cb.Release()
	})
}

// FuzzDecodeGradient drives arbitrary container bytes through the
// gradient decode path (CodecGradRaw). Malformed frames — wrong payload
// length, scales on a frame that carries none — must fail with an
// error, never a panic, and a successful decode must honour the frame's
// declared shape.
func FuzzDecodeGradient(f *testing.F) {
	r := tensor.NewRNG(11)
	x := tensor.New(1, 1, 1, 512)
	for i := range x.Data {
		if i%3 != 0 {
			x.Data[i] = float32(r.Norm() * 1e-3)
		}
	}
	p := New(quant.OptL())
	enc, err := p.EncodeGradient(frame.CodecGradRaw, x)
	if err != nil {
		f.Fatal(err)
	}
	valid := frame.EncodeFrame(enc.Frame)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// Well-checksummed frames the decoder must refuse: a scale on a raw
	// gradient, and a payload one value short of the shape.
	enc.Frame.Scales = []float32{1}
	f.Add(frame.EncodeFrame(enc.Frame))
	enc.Frame.Scales, enc.Frame.Payload = nil, enc.Frame.Payload[4:]
	f.Add(frame.EncodeFrame(enc.Frame))
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := frame.DecodeFrame(raw)
		if err != nil {
			return
		}
		if fr.Codec != frame.CodecGradRaw {
			return
		}
		out, err := p.Decode(fr)
		if err != nil {
			return
		}
		if out.Shape != fr.Shape {
			t.Fatalf("tensor shape %v, frame shape %v", out.Shape, fr.Shape)
		}
	})
}
