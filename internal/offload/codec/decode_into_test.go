package codec

import (
	"math"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// TestDecodeIntoWritesEveryElement: DecodeInto writes every element of
// its destination straight from the frame bytes, so decoding into a
// NaN-filled tensor must land on Decode's zero-filled result bit for bit.
// The JPEG-ACT and SFPR+ZVC frames cover H and W off the 8 grid, H < 8,
// blocks that span plane boundaries, and streams several ZVC shards long
// whose shards start mid-plane; the raw gradient frame rides along. A
// destination of the wrong shape is refused.
func TestDecodeIntoWritesEveryElement(t *testing.T) {
	shapes := []tensor.Shape{
		{N: 8, C: 16, H: 32, W: 32}, // the benchmark's activation, 32 ZVC shards
		{N: 2, C: 5, H: 13, W: 11},  // H and W off the grid: blocks span planes
		{N: 3, C: 4, H: 4, W: 16},   // H < 8: every block spans two planes
		{N: 1, C: 3, H: 9, W: 8},    // W on the grid, H off it
		{N: 5, C: 7, H: 11, W: 24},  // shards start mid-plane
	}
	kinds := []compress.Kind{compress.KindConv, compress.KindReLUToConv, compress.KindGradient}
	p := New(quant.OptL())
	for _, workers := range []int{1, 3} {
		prev := parallel.SetWorkers(workers)
		for si, sh := range shapes {
			for _, kind := range kinds {
				x := goldenTensor(goldenCase{"optL", kind, sh}, si)
				enc, err := p.Encode(kind, x)
				if kind == compress.KindGradient {
					enc, err = p.EncodeGradient(frame.CodecGradRaw, x)
				}
				if err != nil {
					t.Fatal(err)
				}
				f, err := frame.DecodeFrame(frame.EncodeFrame(enc.Frame))
				if err != nil {
					t.Fatal(err)
				}
				want, err := p.Decode(f)
				if err != nil {
					t.Fatal(err)
				}
				dst := tensor.New(sh.N, sh.C, sh.H, sh.W)
				dst.Fill(float32(math.NaN()))
				if err := p.DecodeInto(f, dst); err != nil {
					t.Fatalf("%v %v (%s): %v", kind, sh, f.Codec, err)
				}
				for i, v := range want.Data {
					if math.Float32bits(v) != math.Float32bits(dst.Data[i]) {
						t.Fatalf("%v %v (%s) at %d workers: element %d: DecodeInto %v, Decode %v",
							kind, sh, f.Codec, workers, i, dst.Data[i], v)
					}
				}
				wrong := tensor.New(sh.N, sh.C, sh.W, sh.H+1)
				if err := p.DecodeInto(f, wrong); err == nil {
					t.Errorf("%v %v: a %v destination was accepted", kind, sh, wrong.Shape)
				}
			}
		}
		parallel.SetWorkers(prev)
	}
}
