package codec

import (
	"errors"
	"runtime"
	"testing"

	"jpegact/internal/coding"
	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// hugeShapeFrame is a CRC-valid frame whose header claims 2²⁸ elements
// and whose payload is one byte: 293 bytes on the wire. Any GET response
// from a store, or a file handed to `actcompress -d`, can be this.
func hugeShapeFrame(t testing.TB, c frame.Codec) *frame.Frame {
	t.Helper()
	raw := frame.EncodeFrame(&frame.Frame{
		Codec:   c,
		Kind:    uint8(compress.KindConv),
		Shape:   tensor.Shape{N: 1024, C: 64, H: 64, W: 64},
		Scales:  make([]float32, 64),
		Payload: []byte{0},
	})
	if len(raw) > 512 {
		t.Fatalf("the bomb is %d bytes; it is meant to be small", len(raw))
	}
	f, err := frame.DecodeFrame(raw)
	if err != nil {
		t.Fatalf("the frame must pass the container's checks: %v", err)
	}
	return f
}

// TestShortPayloadRejectedBeforeAllocating: a ZVC stream needs one mask
// byte per eight values, so a payload too short for the header's shape
// is decidable before anything is sized from that shape. All three entry
// points used to allocate the full 256 MiB first.
func TestShortPayloadRejectedBeforeAllocating(t *testing.T) {
	p := New(quant.OptL())
	entries := []struct {
		name   string
		codec  frame.Codec
		decode func(f *frame.Frame) error
	}{
		{"Decode/jpeg", frame.CodecJPEG, func(f *frame.Frame) error { _, err := p.Decode(f); return err }},
		{"Decode/zvc", frame.CodecZVC, func(f *frame.Frame) error { _, err := p.Decode(f); return err }},
		{"DecodeCoefficients", frame.CodecJPEG, func(f *frame.Frame) error { _, err := p.DecodeCoefficients(f); return err }},
	}
	for _, e := range entries {
		f := hugeShapeFrame(t, e.codec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := e.decode(f)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, coding.ErrCorrupt) {
			t.Errorf("%s: %v, want coding.ErrCorrupt", e.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes before rejecting a %d-byte payload", e.name, grew, len(f.Payload))
		}
	}
}

// TestTrailingPayloadBytesRejected: internal/frame promises that a frame
// which decodes re-encodes byte-identically, so a payload with bytes
// after its last group — under a fresh, valid CRC — must not decode.
func TestTrailingPayloadBytesRejected(t *testing.T) {
	p := New(quant.OptL())
	r := tensor.NewRNG(8)
	for _, kind := range []compress.Kind{compress.KindConv, compress.KindReLUToConv} {
		x := tensor.New(2, 4, 16, 16)
		for i := range x.Data {
			if v := float32(r.Norm()); kind == compress.KindConv || v > 0 {
				x.Data[i] = v
			}
		}
		enc, err := p.Encode(kind, x)
		if err != nil {
			t.Fatal(err)
		}
		enc.Frame.Payload = append(enc.Frame.Payload, 0, 0, 0)
		f, err := frame.DecodeFrame(frame.EncodeFrame(enc.Frame))
		if err != nil {
			t.Fatalf("%v: the container does not look inside the payload: %v", kind, err)
		}
		if _, err := p.Decode(f); !errors.Is(err, coding.ErrCorrupt) {
			t.Errorf("%v (%s): Decode with three trailing bytes: %v, want coding.ErrCorrupt", kind, f.Codec, err)
		}
		if f.Codec == frame.CodecJPEG {
			if _, err := p.DecodeCoefficients(f); !errors.Is(err, coding.ErrCorrupt) {
				t.Errorf("%v: DecodeCoefficients with three trailing bytes: %v, want coding.ErrCorrupt", kind, err)
			}
		}
	}
}
