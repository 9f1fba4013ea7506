package codec

import (
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// benchKinds are the three codecs as the engine reaches them: a dense
// conv activation (JPEG-ACT: ≈ 78% non-zero coefficients under OptL), a
// ReLU→conv activation (SFPR+ZVC: ≈ 45% non-zero codes) and a ReLU→other
// activation (BRC).
var benchKinds = []struct {
	name string
	kind compress.Kind
}{
	{"conv", compress.KindConv},
	{"relu_conv", compress.KindReLUToConv},
	{"relu_other", compress.KindReLUToOther},
}

// benchTensor is an (8,16,32,32) activation of the given kind: dense
// Gaussian for conv, rectified (with a slightly negative mean, so a bit
// under half survives) for the ReLU kinds.
func benchTensor(kind compress.Kind) *tensor.Tensor {
	r := tensor.NewRNG(5)
	x := tensor.New(8, 16, 32, 32)
	for i := range x.Data {
		v := float32(r.Norm())
		if kind == compress.KindConv {
			x.Data[i] = v
		} else if v > 0.1 {
			x.Data[i] = v - 0.1
		}
	}
	return x
}

var benchSink int

// BenchmarkCodecEncode is Pipeline.Encode + frame.EncodeFrame, what the
// engine runs per saved activation on the way out.
func BenchmarkCodecEncode(b *testing.B) {
	p := New(quant.OptL())
	for _, k := range benchKinds {
		x := benchTensor(k.kind)
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(x.Bytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc, err := p.Encode(k.kind, x)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(frame.EncodeFrame(enc.Frame))
			}
		})
	}
}

// BenchmarkCodecDecode is frame.DecodeFrame + Pipeline.Decode, the way
// back.
func BenchmarkCodecDecode(b *testing.B) {
	p := New(quant.OptL())
	for _, k := range benchKinds {
		x := benchTensor(k.kind)
		enc, err := p.Encode(k.kind, x)
		if err != nil {
			b.Fatal(err)
		}
		raw := frame.EncodeFrame(enc.Frame)
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(x.Bytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := frame.DecodeFrame(raw)
				if err != nil {
					b.Fatal(err)
				}
				out, err := p.Decode(f)
				if err != nil {
					b.Fatal(err)
				}
				if out != nil {
					benchSink += len(out.Data)
				}
			}
		})
	}
}
