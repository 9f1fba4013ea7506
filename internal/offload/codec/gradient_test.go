package codec

import (
	"math"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// gradTensor builds a flattened (1,1,1,n) near-Gaussian gradient chunk
// with a sprinkle of exact zeros (the shape real weight gradients have
// after weight decay and ReLU masking).
func gradTensor(seed uint64, n int) *tensor.Tensor {
	r := tensor.NewRNG(seed)
	x := tensor.New(1, 1, 1, n)
	for i := range x.Data {
		if r.Float64() < 0.2 {
			continue // exact zero
		}
		x.Data[i] = float32(r.Norm() * 1e-3)
	}
	return x
}

// TestGradRawRoundtripBitExact: the lossless gradient codec must give
// back every bit, including negative zeros and denormals, through a
// full frame encode/decode cycle.
func TestGradRawRoundtripBitExact(t *testing.T) {
	p := New(quant.OptL())
	x := gradTensor(1, 1000)
	x.Data[0] = float32(math.Copysign(0, -1))
	x.Data[1] = math.SmallestNonzeroFloat32
	x.Data[2] = -math.MaxFloat32

	enc, err := p.EncodeGradient(frame.CodecGradRaw, x)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Frame.Kind != uint8(compress.KindGradient) {
		t.Fatalf("frame kind %d, want %d", enc.Frame.Kind, compress.KindGradient)
	}
	fr, err := frame.DecodeFrame(frame.EncodeFrame(enc.Frame))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Decode(fr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(x.Data[i]) {
			t.Fatalf("element %d: %x, want %x", i, math.Float32bits(got.Data[i]), math.Float32bits(x.Data[i]))
		}
	}
}

// TestEncodeGradientRejectsActivationCodecs: the explicit gradient
// entry point must refuse the Table II activation codecs, and id 5, the
// quantized gradient codec this format once had.
func TestEncodeGradientRejectsActivationCodecs(t *testing.T) {
	p := New(quant.OptL())
	x := gradTensor(4, 64)
	for _, c := range []frame.Codec{frame.CodecBRC, frame.CodecJPEG, frame.CodecZVC, 5} {
		if _, err := p.EncodeGradient(c, x); err == nil {
			t.Fatalf("EncodeGradient accepted %s", c)
		}
	}
}

// TestDecodeGradRawLengthMismatch: a raw gradient frame whose payload
// disagrees with its shape must fail typed, not slice out of range.
func TestDecodeGradRawLengthMismatch(t *testing.T) {
	p := New(quant.OptL())
	f := &frame.Frame{
		Codec:   frame.CodecGradRaw,
		Kind:    uint8(compress.KindGradient),
		Shape:   tensor.Shape{N: 1, C: 1, H: 1, W: 8},
		Payload: make([]byte, 12), // 8 elements declared, 3 shipped
	}
	if _, err := p.Decode(f); err == nil {
		t.Fatal("short raw gradient payload decoded")
	}
}
