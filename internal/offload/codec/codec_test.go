package codec

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func TestSelectPolicy(t *testing.T) {
	big := tensor.Shape{N: 2, C: 4, H: 16, W: 16}
	small := tensor.Shape{N: 1, C: 2, H: 4, W: 4}
	cases := []struct {
		kind compress.Kind
		sh   tensor.Shape
		want frame.Codec
	}{
		{compress.KindReLUToOther, big, frame.CodecBRC},
		{compress.KindConv, big, frame.CodecJPEG},
		{compress.KindConv, small, frame.CodecZVC},
		{compress.KindReLUToConv, big, frame.CodecZVC},
		{compress.KindPoolDropout, big, frame.CodecZVC},
	}
	for _, c := range cases {
		if got := Select(c.kind, c.sh); got != c.want {
			t.Fatalf("Select(%v, %v) = %v, want %v", c.kind, c.sh, got, c.want)
		}
	}
}

// TestSelectNamesThePolicyCoder holds the frame-level policy to the one
// compress.PolicyFor documents for the functional JPEG-ACT method, over
// the golden shapes and every kind: the documented coder is the kind's
// row of Table II, except that a conv activation compress.JPEGApplicable
// refuses takes the default row (PolicyFor's own caveat).
func TestSelectNamesThePolicyCoder(t *testing.T) {
	coder := map[frame.Codec]string{
		frame.CodecBRC:  "BRC",
		frame.CodecJPEG: "SFPR+DCT+SH+ZVC",
		frame.CodecZVC:  "SFPR+ZVC",
	}
	m := compress.NewJPEGAct(quant.Fixed(quant.OptL()))
	for _, c := range goldenCases() {
		row := c.kind
		if row == compress.KindConv && !compress.JPEGApplicable(c.shape) {
			row = compress.KindPoolDropout
		}
		if got, want := coder[Select(c.kind, c.shape)], compress.PolicyFor(m, row); got != want {
			t.Errorf("%v: Select names %q, PolicyFor documents %q", c, got, want)
		}
	}
}

// TestRoundtripMatchesFunctionalMethod pins the two Table II
// implementations to each other: for every activation kind, over shapes
// that tile, shapes that need a pad fringe and shapes too small to tile
// at all, the codec layer must reconstruct exactly what the functional
// JPEG-ACT method produces (same pipeline, same DQT) — the property the
// recompute recovery path's bit-exactness rests on — and the method must
// account exactly the bytes the store frames, since the round-trip
// policy exists to simulate what the store does.
func TestRoundtripMatchesFunctionalMethod(t *testing.T) {
	shapes := []tensor.Shape{
		{N: 2, C: 4, H: 16, W: 16}, // whole blocks
		{N: 2, C: 3, H: 8, W: 8},
		{N: 1, C: 3, H: 9, W: 13}, // pad fringe on both block axes
		{N: 3, C: 1, H: 5, W: 8},  // pad fringe on the row axis only
		{N: 2, C: 8, H: 4, W: 4},  // W < 8: untileable
		{N: 1, C: 1, H: 2, W: 4},  // N·C·H < 8 and W < 8
		{N: 1, C: 1, H: 4, W: 16}, // N·C·H < 8 alone
	}
	kinds := []compress.Kind{compress.KindConv, compress.KindReLUToConv, compress.KindPoolDropout, compress.KindReLUToOther}
	for _, d := range []quant.DQT{quant.OptL(), quant.OptH()} {
		m := compress.NewJPEGAct(quant.Fixed(d))
		p := New(d)
		for si, sh := range shapes {
			for _, kind := range kinds {
				r := tensor.NewRNG(uint64(2 + si))
				x := tensor.New(sh.N, sh.C, sh.H, sh.W)
				for i := range x.Data {
					if v := float32(r.Norm()); kind == compress.KindConv || v > 0 {
						x.Data[i] = v // the ReLU and pooling kinds are half zeros
					}
				}
				want := m.Compress(x.Clone(), kind, 0)

				enc, err := p.Encode(kind, x)
				if err != nil {
					t.Fatalf("%s %v %v: %v", d.Name, kind, sh, err)
				}
				// Through a real frame encode/decode, as the transport would see it.
				f, err := frame.DecodeFrame(frame.EncodeFrame(enc.Frame))
				if err != nil {
					t.Fatalf("%s %v %v: %v", d.Name, kind, sh, err)
				}
				got, err := p.Decode(f)
				if err != nil {
					t.Fatalf("%s %v %v: %v", d.Name, kind, sh, err)
				}
				if framed := len(f.Payload) + 4*len(f.Scales); want.CompressedBytes != framed {
					t.Errorf("%s %v %v: method accounts %d B, the store frames %d B (%s)",
						d.Name, kind, sh, want.CompressedBytes, framed, f.Codec)
				}
				if kind == compress.KindReLUToOther {
					if got != nil || !slices.Equal(want.Mask, enc.Mask) {
						t.Errorf("%s %v %v: BRC masks differ", d.Name, kind, sh)
					}
					continue
				}
				if got == nil || got.Shape != want.Recovered.Shape {
					t.Fatalf("%s %v %v: decoded %v", d.Name, kind, sh, got)
				}
				for i, v := range want.Recovered.Data {
					if math.Float32bits(v) != math.Float32bits(got.Data[i]) {
						t.Errorf("%s %v %v: element %d: method %v, codec %v", d.Name, kind, sh, i, v, got.Data[i])
						break
					}
				}
			}
		}
	}
}

// TestEncodeDeterministic: the framed bytes are identical from one
// encode to the next and at every worker count — the frame is what
// actcompress writes to disk and what a resend puts back on the wire.
func TestEncodeDeterministic(t *testing.T) {
	r := tensor.NewRNG(3)
	x := tensor.New(2, 8, 24, 24)
	for i := range x.Data {
		if r.Float64() < 0.5 {
			x.Data[i] = float32(r.Norm())
		}
	}
	p := New(quant.OptH())
	var ref string
	for _, w := range []int{1, 1, 2, runtime.GOMAXPROCS(0)} {
		old := parallel.SetWorkers(w)
		enc, err := p.Encode(compress.KindConv, x)
		parallel.SetWorkers(old)
		if err != nil {
			t.Fatal(err)
		}
		b := string(frame.EncodeFrame(enc.Frame))
		if ref == "" {
			ref = b
		}
		if b != ref {
			t.Fatalf("workers=%d: frame bytes differ from the first encode", w)
		}
	}
}

func TestBRCMask(t *testing.T) {
	r := tensor.NewRNG(4)
	x := data.ActivationTensor(r, 1, 2, 8, 8, 0.5, 1.0)
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	p := New(quant.OptL())
	enc, err := p.Encode(compress.KindReLUToOther, x)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Mask == nil || enc.Frame.Codec != frame.CodecBRC {
		t.Fatal("BRC path must produce a mask")
	}
	for i, v := range x.Data {
		if enc.Mask[i] != (v > 0) {
			t.Fatalf("mask bit %d wrong", i)
		}
	}
	got, err := p.Decode(enc.Frame)
	if err != nil || got != nil {
		t.Fatalf("BRC decode must be a nil-tensor no-op, got %v, %v", got, err)
	}
}

func TestDecodeUnknownCodec(t *testing.T) {
	p := New(quant.OptL())
	_, err := p.Decode(&frame.Frame{Codec: frame.Codec(9)})
	if err == nil {
		t.Fatal("unknown codec must error")
	}
}
