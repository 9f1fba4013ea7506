package codec

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"jpegact/internal/coding"
	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// codecRow is one Table I back end: a method and kind that select it.
type codecRow struct {
	codec  frame.Codec
	method compress.Method
	kind   compress.Kind
}

// codecRows names a method and kind for every frame codec the activation
// policy selects.
func codecRows() []codecRow {
	return []codecRow{
		{frame.CodecGradRaw, compress.Baseline{}, compress.KindConv},
		{frame.CodecZVC32, compress.CDMAPlus{}, compress.KindReLUToConv},
		{frame.CodecDPR, compress.GIST{}, compress.KindConv},
		{frame.CodecDPRCSR, compress.GIST{}, compress.KindPoolDropout},
		{frame.CodecBRC, compress.GIST{}, compress.KindReLUToOther},
		{frame.CodecSFPR, compress.SFPROnly{}, compress.KindConv},
		{frame.CodecZVC, compress.NewJPEGAct(quant.Fixed(quant.OptL())), compress.KindReLUToConv},
		{frame.CodecJPEG, compress.NewJPEGAct(quant.Fixed(quant.OptL())), compress.KindConv},
		{frame.CodecRLE, compress.NewJPEGBase(quant.JPEGQuality(80)), compress.KindConv},
		{frame.CodecCDU, compress.NewHardwareJPEGACT(quant.Fixed(quant.OptL()), 4), compress.KindConv},
	}
}

// TestCodecRowsSelectTheirCodec keeps codecRows honest: each row's method
// selects the row's codec for the row's kind at a tileable shape.
func TestCodecRowsSelectTheirCodec(t *testing.T) {
	sh := tensor.Shape{N: 2, C: 3, H: 8, W: 8}
	for _, r := range codecRows() {
		if got := compress.Select(r.method, r.kind, sh); got != r.codec {
			t.Errorf("%s %v selects %s, want %s", r.method.Name(), r.kind, got, r.codec)
		}
	}
}

// TestLosslessAndDPRCodecsKeepEveryBit: the raw and float32 ZVC codecs
// reconstruct every bit — −0, float32 subnormals, the largest finite
// values, infinities and NaN payloads — and FP8 DPR and DPR+CSR
// reconstruct exactly DPR's value (sfpr.FP8.Quantize) of each: its −0,
// its subnormals, its rounding and its saturation at ±240. Two cases
// cannot occur under DPR: a float32 subnormal is far below e4m3's
// smallest subnormal (2⁻⁹), so DPR's value, and the codecs', is a signed
// zero; and a NaN keeps no payload in e4m3, so DPR's NaN comes back as a
// NaN of the same sign (a NaN activation has tripped the divergence guard
// long before).
func TestLosslessAndDPRCodecsKeepEveryBit(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40,
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
		1.0 / 512, -3.0 / 512, 1.0 / 64, 0.0625 * 1.03, 1.9999, 240, -250, 1e6,
		0.3, -0.7, 1, 0, 0, 0,
	}
	nan := math.Float32frombits(0x7fc0_1234)
	x := tensor.New(1, 1, 1, len(special)+2)
	copy(x.Data, special)
	x.Data[len(special)] = nan
	x.Data[len(special)+1] = -nan
	for _, r := range codecRows() {
		var want func(v float32) float32
		switch r.codec {
		case frame.CodecGradRaw, frame.CodecZVC32:
			want = func(v float32) float32 { return v }
		case frame.CodecDPR, frame.CodecDPRCSR:
			want = sfpr.FP8.Quantize
		default:
			continue
		}
		res := For(r.method, 0).Compress(r.kind, x)
		for i, v := range x.Data {
			got, w := res.Recovered.Data[i], want(v)
			if w != w && r.codec != frame.CodecGradRaw && r.codec != frame.CodecZVC32 {
				if got == got || math.Signbit(float64(got)) != math.Signbit(float64(w)) {
					t.Errorf("%s: NaN %08x decodes to %v", r.codec, math.Float32bits(v), got)
				}
				continue
			}
			if math.Float32bits(got) != math.Float32bits(w) {
				t.Errorf("%s: %v (%08x) decodes to %08x, want %08x", r.codec, v, math.Float32bits(v), math.Float32bits(got), math.Float32bits(w))
			}
		}
	}
}

// TestNewCodecsRejectMalformedHeaders: every codec bounds its payload by
// the header's shape and holds the scale count to it before anything is
// sized from that shape, so a 300-byte frame claiming 2²⁸ elements is
// refused without a quarter-gigabyte allocation, and a frame with one
// scale too many is a header error.
func TestNewCodecsRejectMalformedHeaders(t *testing.T) {
	p := New(quant.OptL())
	for _, r := range codecRows() {
		if r.codec == frame.CodecBRC {
			continue // nothing is decoded or sized from a BRC frame
		}
		enc, err := For(r.method, 0).Encode(r.kind, goldenTensor(goldenCase{"optL", r.kind, tensor.Shape{N: 2, C: 3, H: 8, W: 8}}, 1))
		if err != nil {
			t.Fatal(err)
		}
		huge := tensor.Shape{N: 1024, C: 64, H: 64, W: 64}
		var scales []float32
		if len(enc.Frame.Scales) > 0 {
			scales = make([]float32, huge.C)
		}
		for _, f := range []*frame.Frame{
			{Codec: r.codec, Shape: huge, Scales: scales, Payload: []byte{0}},
			{Codec: r.codec, Shape: enc.Frame.Shape, Scales: append(enc.Frame.Scales, 1), Payload: enc.Frame.Payload},
		} {
			f, err := frame.DecodeFrame(frame.EncodeFrame(f))
			if err != nil {
				t.Fatalf("%s: the frame must pass the container's checks: %v", r.codec, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = p.Decode(f)
			runtime.ReadMemStats(&after)
			wantErr := coding.ErrCorrupt
			if f.Shape != huge {
				wantErr = frame.ErrHeader
			}
			if !errors.Is(err, wantErr) {
				t.Errorf("%s %v with %d scales, %d payload bytes: %v, want %v", r.codec, f.Shape, len(f.Scales), len(f.Payload), err, wantErr)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s: allocated %d bytes before rejecting a %d-byte payload", r.codec, grew, len(f.Payload))
			}
		}
	}
}
