package codec

import (
	"math"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// FuzzDecodeCoefficients feeds arbitrary container bytes through the
// frame decoder into the coefficient path. Malformed input must never
// panic, and a frame that decodes must give blocks of its own shape.
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

// FuzzDecodeActivation drives arbitrary container bytes through the frame
// decoder and then both activation decodes: Decode into a fresh tensor,
// and DecodeInto a destination of the frame's shape full of stale values,
// as a restore's recycled arena buffer is. Neither may panic; they must
// accept and reject the same frames, and agree bit for bit on what they
// accept. The committed corpus (testdata/fuzz/FuzzDecodeActivation) holds
// valid frames — JPEG-ACT blocks that span planes, an SFPR+ZVC stream two
// shards long — and near misses of them, and the seeds add one valid
// frame of every codec a Table I method selects, at a shape with a pad
// fringe. A frame's table is not in it, so every frame decodes under the
// OptL table here: the JPEG-BASE and CDU frames decode to other values
// than their encoder meant, through the same checks.
func FuzzDecodeActivation(f *testing.F) {
	p := New(quant.OptL())
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(frame.EncodeFrame(hugeShapeFrame(f, frame.CodecJPEG)))
	f.Add(frame.EncodeFrame(hugeShapeFrame(f, frame.CodecZVC)))
	for _, r := range codecRows() {
		x := goldenTensor(goldenCase{"optL", r.kind, tensor.Shape{N: 1, C: 3, H: 9, W: 10}}, 3)
		enc, err := For(r.method, 0).Encode(r.kind, x)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame.EncodeFrame(enc.Frame))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := frame.DecodeFrame(raw)
		if err != nil {
			return
		}
		want, werr := p.Decode(fr)
		if werr == nil && want == nil {
			// A BRC frame has no values, and its header's shape is bounded
			// only by the container: nothing to decode, nothing to size.
			if err := p.DecodeInto(fr, nil); err != nil {
				t.Fatalf("Decode accepted a %v %s frame, DecodeInto refused it: %v", fr.Shape, fr.Codec, err)
			}
			return
		}
		if werr != nil && fr.Shape.Elems() > 8*len(raw) {
			// Refused before sizing anything from the header: so must
			// DecodeInto be, but not through a destination this large.
			if p.DecodeInto(fr, tensor.New(1, 1, 1, 1)) == nil {
				t.Fatalf("Decode refused a %v %s frame (%v), DecodeInto accepted it", fr.Shape, fr.Codec, werr)
			}
			return
		}
		dst := tensor.New(fr.Shape.N, fr.Shape.C, fr.Shape.H, fr.Shape.W)
		dst.Fill(-3.5)
		gerr := p.DecodeInto(fr, dst)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%v %s frame: Decode error %v, DecodeInto error %v", fr.Shape, fr.Codec, werr, gerr)
		}
		if werr != nil {
			return
		}
		for i, v := range want.Data {
			if math.Float32bits(v) != math.Float32bits(dst.Data[i]) {
				t.Fatalf("%v %s frame: element %d: Decode %v, DecodeInto %v", fr.Shape, fr.Codec, i, v, dst.Data[i])
			}
		}
	})
}
