package compress

import (
	"testing"

	"jpegact/internal/data"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// roundTrip codes x through the pipeline's ZVC (Encode) or RLE
// (EncodeRLE) back end and decodes it into a fresh tensor, returning it
// with the coded bytes plus the scales'.
func (p *Pipeline) roundTrip(x *tensor.Tensor, rle bool) (*tensor.Tensor, int) {
	out := tensor.New(x.Shape.N, x.Shape.C, x.Shape.H, x.Shape.W)
	encode, decode := p.Encode, p.DecodeInto
	if rle {
		encode, decode = p.EncodeRLE, p.DecodeRLEInto
	}
	payload, scales := encode(x)
	if err := decode(payload, scales, out); err != nil {
		panic(err)
	}
	return out, len(payload) + 4*len(scales)
}

// CorrelatedAct and ReLUAct export the activation builders to the
// method tests, which run outside the package (through the codec layer).
var CorrelatedAct, ReLUAct = correlatedAct, reluAct

// correlatedAct builds a dense activation with image-like spatial
// correlation, the regime where transform coding pays off.
func correlatedAct(seed uint64, n, c, h, w int) *tensor.Tensor {
	r := tensor.NewRNG(seed)
	x := tensor.New(n, c, h, w)
	plane := h * w
	for i := 0; i < n*c; i++ {
		copy(x.Data[i*plane:(i+1)*plane], data.Texture(r, h, w, 5))
	}
	return x
}

// reluAct builds a sparse activation (~50% zeros) as a ReLU output.
func reluAct(seed uint64, n, c, h, w int) *tensor.Tensor {
	x := correlatedAct(seed, n, c, h, w)
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	return x
}

func TestJPEGBaseVsActBackEnds(t *testing.T) {
	// On flat-spectrum activation-like data with the flat optimized DQT,
	// the ZVC back end must beat RLE (§VI-C, Table III optL column), and
	// the SH power-of-two quantizer must stay close to DIV in error.
	r := tensor.NewRNG(10)
	x := data.ActivationTensor(r, 2, 8, 32, 32, 0.4, 1.0)
	d := quant.OptL()
	rle := Pipeline{DQT: d, UseShift: false, S: 1.125}
	zvc := Pipeline{DQT: d, UseShift: true, S: 1.125}
	recR, bytesR := rle.roundTrip(x, true)
	recZ, bytesZ := zvc.roundTrip(x, false)
	if bytesZ >= bytesR {
		t.Fatalf("SH+ZVC %dB should beat DIV+RLE %dB on flat-DQT activations", bytesZ, bytesR)
	}
	eb := tensor.L2Error(x, recR)
	ea := tensor.L2Error(x, recZ)
	if ea > 2.5*eb+1e-6 {
		t.Fatalf("SH error %v too far above DIV error %v", ea, eb)
	}
}

func TestPipelineRoundtripPreservesShape(t *testing.T) {
	for _, sh := range []tensor.Shape{
		{N: 1, C: 1, H: 8, W: 8},
		{N: 2, C: 3, H: 6, W: 10}, // needs padding
		{N: 1, C: 2, H: 13, W: 9},
	} {
		x := correlatedAct(14, sh.N, sh.C, sh.H, sh.W)
		p := JPEGAct(quant.OptL())
		rec, bytes := p.roundTrip(x, false)
		if rec.Shape != sh {
			t.Fatalf("shape %v -> %v", sh, rec.Shape)
		}
		if bytes <= 0 {
			t.Fatal("no bytes accounted")
		}
	}
}

func TestPipelineQuantizedBlocksCount(t *testing.T) {
	x := correlatedAct(15, 1, 2, 8, 16)
	p := Pipeline{DQT: quant.JPEGQuality(80)}
	blocks, scales, info := p.QuantizeBlocks(x)
	if len(blocks) != (info.BlockRows/8)*(info.BlockCols/8) {
		t.Fatalf("block count %d", len(blocks))
	}
	if len(scales) != 2 {
		t.Fatalf("scales %d", len(scales))
	}
	rec := p.ReconstructBlocks(blocks, scales, info)
	if rec.Shape != x.Shape {
		t.Fatal("reconstruct shape mismatch")
	}
}

func TestStandardRegistry(t *testing.T) {
	ms := Standard()
	if len(ms) != 9 {
		t.Fatalf("want 9 methods, got %d", len(ms))
	}
	wantNames := []string{
		"baseline", "cDMA+", "GIST", "SFPR",
		"JPEG-BASE/jpeg80", "JPEG-BASE/jpeg60",
		"JPEG-ACT/optL", "JPEG-ACT/optH", "JPEG-ACT/optL5H",
	}
	for i, m := range ms {
		if m.Name() != wantNames[i] {
			t.Fatalf("method %d = %q, want %q", i, m.Name(), wantNames[i])
		}
	}
	// Lossless flags, read off the codecs each method selects.
	if !Lossless(ms[0]) || !Lossless(ms[1]) {
		t.Fatal("baseline and cDMA+ are lossless")
	}
	for _, m := range ms[2:] {
		if Lossless(m) {
			t.Fatalf("%s should be lossy", m.Name())
		}
	}
}

func TestPolicyForMatchesTableII(t *testing.T) {
	gist := GIST{}
	if PolicyFor(gist, KindConv) != "DPR" || PolicyFor(gist, KindReLUToOther) != "BRC" ||
		PolicyFor(gist, KindReLUToConv) != "DPR+CSR" {
		t.Fatal("GIST policy wrong")
	}
	act := NewJPEGAct(quant.OptL5H())
	if PolicyFor(act, KindConv) != "SFPR+DCT+SH+ZVC" || PolicyFor(act, KindPoolDropout) != "SFPR+ZVC" {
		t.Fatal("JPEG-ACT policy wrong")
	}
	base := NewJPEGBase(quant.JPEGQuality(80))
	if PolicyFor(base, KindConv) != "SFPR+DCT+DIV+RLE" || PolicyFor(base, KindReLUToConv) != "SFPR" {
		t.Fatal("JPEG-BASE policy wrong")
	}
	if PolicyFor(CDMAPlus{}, KindConv) != "none" || PolicyFor(CDMAPlus{}, KindPoolDropout) != "ZVC" {
		t.Fatal("cDMA+ policy wrong")
	}
}

func BenchmarkJPEGActRoundtrip(b *testing.B) {
	x := correlatedAct(17, 4, 16, 32, 32)
	p := JPEGAct(quant.OptH())
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.roundTrip(x, false)
	}
}
