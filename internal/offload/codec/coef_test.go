package codec

import (
	"errors"
	"math"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// TestDecodeCoefficientsRoundtrip pins the coefficient path against the
// full decode: reconstructing from the decoded blocks must be
// bit-identical to Decode of the same frame.
func TestDecodeCoefficientsRoundtrip(t *testing.T) {
	r := tensor.NewRNG(6)
	x := data.ActivationTensor(r, 2, 4, 16, 16, 0.5, 1.0)
	p := New(quant.OptL())
	enc, err := p.Encode(compress.KindConv, x)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Frame.Codec != frame.CodecJPEG {
		t.Fatalf("expected a JPEG frame, got %v", enc.Frame.Codec)
	}
	f, err := frame.DecodeFrame(frame.EncodeFrame(enc.Frame))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := p.DecodeCoefficients(f)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()
	if cb.info.Orig != x.Shape {
		t.Fatalf("blocks of shape %v, want %v", cb.info.Orig, x.Shape)
	}
	cp := compress.JPEGAct(p.DQT)
	cp.S = p.S
	got := cp.ReconstructBlocks(cb.blocks, f.Scales, cb.info)
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("elem %d: coefficient path %v, full decode %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestDecodeCoefficientsNonJPEG pins the fallback contract: frames
// without a DCT representation report ErrNoCoefficients, not a panic or
// bogus blocks.
func TestDecodeCoefficientsNonJPEG(t *testing.T) {
	r := tensor.NewRNG(7)
	x := tensor.New(1, 2, 4, 4)
	x.FillNormal(r, 0, 1)
	p := New(quant.OptL())
	for _, kind := range []compress.Kind{compress.KindPoolDropout, compress.KindReLUToOther} {
		enc, err := p.Encode(kind, x)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.DecodeCoefficients(enc.Frame); !errors.Is(err, ErrNoCoefficients) {
			t.Fatalf("kind %v: want ErrNoCoefficients, got %v", kind, err)
		}
	}
}

// TestDecodeCoefficientsCorrupt checks header and payload validation.
func TestDecodeCoefficientsCorrupt(t *testing.T) {
	r := tensor.NewRNG(8)
	x := data.ActivationTensor(r, 1, 2, 8, 8, 0.5, 1.0)
	p := New(quant.OptL())
	enc, err := p.Encode(compress.KindConv, x)
	if err != nil {
		t.Fatal(err)
	}
	bad := *enc.Frame
	bad.Scales = bad.Scales[:1]
	if _, err := p.DecodeCoefficients(&bad); err == nil {
		t.Fatal("scale/channel mismatch must error")
	}
	bad = *enc.Frame
	bad.Payload = bad.Payload[:len(bad.Payload)/2]
	if _, err := p.DecodeCoefficients(&bad); err == nil {
		t.Fatal("truncated payload must error")
	}
}
