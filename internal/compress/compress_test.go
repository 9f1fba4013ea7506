package compress

import (
	"math"
	"testing"

	"jpegact/internal/data"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

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

func TestBaselineIdentity(t *testing.T) {
	x := correlatedAct(1, 1, 2, 16, 16)
	res := Baseline{}.Compress(x, KindConv, 0)
	if res.Ratio() != 1 {
		t.Fatalf("ratio %v", res.Ratio())
	}
	if tensor.MSE(x, res.Recovered) != 0 {
		t.Fatal("baseline must be exact")
	}
}

func TestCDMAPlusDenseUncompressed(t *testing.T) {
	x := correlatedAct(2, 1, 2, 16, 16)
	res := CDMAPlus{}.Compress(x, KindConv, 0)
	if res.Ratio() != 1 {
		t.Fatalf("dense ratio %v, want 1", res.Ratio())
	}
}

func TestCDMAPlusSparseRatio(t *testing.T) {
	x := reluAct(3, 2, 4, 16, 16)
	res := CDMAPlus{}.Compress(x, KindReLUToConv, 0)
	// ~50% sparsity: ratio ≈ 32/(1+16) ≈ 1.9.
	if res.Ratio() < 1.5 || res.Ratio() > 3.5 {
		t.Fatalf("ZVC ratio %v out of expected band", res.Ratio())
	}
	if tensor.MSE(x, res.Recovered) != 0 {
		t.Fatal("cDMA+ must be lossless")
	}
}

func TestGISTDenseIs4x(t *testing.T) {
	x := correlatedAct(4, 1, 4, 16, 16)
	res := GIST{}.Compress(x, KindConv, 0)
	if math.Abs(res.Ratio()-4) > 0.01 {
		t.Fatalf("DPR ratio %v, want 4", res.Ratio())
	}
	// 8-bit float is lossy but bounded: relative error ≤ 1/8 per normal
	// element, absolute error ≤ half the subnormal quantum (2^-10) below.
	for i := range x.Data {
		d := math.Abs(float64(res.Recovered.Data[i] - x.Data[i]))
		if d > math.Abs(float64(x.Data[i]))/8+math.Pow(2, -10) {
			t.Fatalf("DPR error %v at %d", d, i)
		}
	}
}

func TestGISTBRCMask(t *testing.T) {
	x := reluAct(5, 1, 2, 8, 8)
	res := GIST{}.Compress(x, KindReLUToOther, 0)
	if res.Recovered != nil || res.Mask == nil {
		t.Fatal("BRC must return a mask")
	}
	if math.Abs(res.Ratio()-32) > 0.5 {
		t.Fatalf("BRC ratio %v, want 32", res.Ratio())
	}
	for i, v := range x.Data {
		if res.Mask[i] != (v > 0) {
			t.Fatalf("mask mismatch at %d", i)
		}
	}
}

func TestGISTCSRPoorOnDense(t *testing.T) {
	// CSR on a low-sparsity activation must be worse than plain 8-bit DPR
	// (ratio < 4) — the Table I pathology.
	x := correlatedAct(6, 1, 4, 16, 16) // dense
	res := GIST{}.Compress(x, KindPoolDropout, 0)
	if res.Ratio() >= 4 {
		t.Fatalf("CSR on dense data ratio %v, want < 4", res.Ratio())
	}
	// And fine on high sparsity.
	sparse := x.Clone()
	for i := range sparse.Data {
		if i%10 != 0 {
			sparse.Data[i] = 0
		}
	}
	res2 := GIST{}.Compress(sparse, KindPoolDropout, 0)
	if res2.Ratio() < 8 {
		t.Fatalf("CSR on 90%% sparsity ratio %v, want > 8", res2.Ratio())
	}
}

func TestSFPROnlyRatio(t *testing.T) {
	x := correlatedAct(7, 2, 8, 16, 16)
	res := SFPROnly{}.Compress(x, KindConv, 0)
	if res.Ratio() < 3.8 || res.Ratio() > 4.0 {
		t.Fatalf("SFPR ratio %v, want ≈4", res.Ratio())
	}
	if e := tensor.L2Error(x, res.Recovered); e > 0.01 {
		t.Fatalf("SFPR error %v", e)
	}
}

func TestJPEGActBeatsSFPROnCorrelatedData(t *testing.T) {
	x := correlatedAct(8, 2, 8, 32, 32)
	sres := SFPROnly{}.Compress(x, KindConv, 0)
	jres := NewJPEGAct(quant.Fixed(quant.OptL())).Compress(x, KindConv, 0)
	if jres.Ratio() <= sres.Ratio() {
		t.Fatalf("JPEG-ACT ratio %v should beat SFPR %v", jres.Ratio(), sres.Ratio())
	}
}

func TestJPEGPipelineErrorOrdering(t *testing.T) {
	// optL must have lower reconstruction error than optH; optH must have
	// higher compression. Measured on flat-spectrum activation-like data,
	// where the AC divisors actually bite (on ultra-smooth data both
	// tables floor at the SFPR precision).
	rr := tensor.NewRNG(9)
	x := data.ActivationTensor(rr, 2, 8, 32, 32, 0.5, 1.0)
	l := NewJPEGAct(quant.Fixed(quant.OptL())).Compress(x, KindConv, 0)
	h := NewJPEGAct(quant.Fixed(quant.OptH())).Compress(x, KindConv, 0)
	el := tensor.L2Error(x, l.Recovered)
	eh := tensor.L2Error(x, h.Recovered)
	if el >= eh {
		t.Fatalf("optL error %v should be below optH error %v", el, eh)
	}
	if h.Ratio() <= l.Ratio() {
		t.Fatalf("optH ratio %v should exceed optL ratio %v", h.Ratio(), l.Ratio())
	}
}

func TestJPEGBaseVsActBackEnds(t *testing.T) {
	// On flat-spectrum activation-like data with the flat optimized DQT,
	// the ZVC back end must beat RLE (§VI-C, Table III optL column), and
	// the SH power-of-two quantizer must stay close to DIV in error.
	r := tensor.NewRNG(10)
	x := data.ActivationTensor(r, 2, 8, 32, 32, 0.4, 1.0)
	d := quant.OptL()
	rle := Pipeline{DQT: d, UseShift: false, UseZVC: false, S: 1.125}
	zvc := Pipeline{DQT: d, UseShift: true, UseZVC: true, S: 1.125}
	recR, bytesR := rle.Roundtrip(x)
	recZ, bytesZ := zvc.Roundtrip(x)
	if bytesZ >= bytesR {
		t.Fatalf("SH+ZVC %dB should beat DIV+RLE %dB on flat-DQT activations", bytesZ, bytesR)
	}
	eb := tensor.L2Error(x, recR)
	ea := tensor.L2Error(x, recZ)
	if ea > 2.5*eb+1e-6 {
		t.Fatalf("SH error %v too far above DIV error %v", ea, eb)
	}
}

func TestJPEGSmallActivationFallsBackToSFPR(t *testing.T) {
	x := correlatedAct(11, 1, 1, 4, 4) // W < 8: no 8×8 blocks
	j := NewJPEGAct(quant.Fixed(quant.OptH()))
	res := j.Compress(x, KindConv, 0)
	if res.Ratio() < 2 || res.Ratio() > 4.1 {
		t.Fatalf("fallback ratio %v, want ≈4 (SFPR)", res.Ratio())
	}
}

func TestJPEGReLUPolicy(t *testing.T) {
	x := reluAct(12, 2, 4, 16, 16)
	j := NewJPEGAct(quant.OptL5H())
	toOther := j.Compress(x, KindReLUToOther, 0)
	if toOther.Mask == nil {
		t.Fatal("ReLU(to other) must use BRC")
	}
	toConv := j.Compress(x, KindReLUToConv, 0)
	if toConv.Recovered == nil {
		t.Fatal("ReLU(to conv) must keep values")
	}
	// SFPR+ZVC on ~50% sparsity: ratio ≈ 4 / (0.5 + 1/8) ≈ 6.4.
	if toConv.Ratio() < 4.5 {
		t.Fatalf("SFPR+ZVC ratio %v, want > 4.5", toConv.Ratio())
	}
	// JPEG-BASE has no ZVC: plain SFPR (≈4×).
	jb := NewJPEGBase(quant.JPEGQuality(80))
	bres := jb.Compress(x, KindReLUToConv, 0)
	if bres.Ratio() > 4.05 {
		t.Fatalf("JPEG-BASE ReLU ratio %v, want ≈4", bres.Ratio())
	}
}

func TestScheduleSwitchesDQT(t *testing.T) {
	rr := tensor.NewRNG(13)
	x := data.ActivationTensor(rr, 1, 8, 32, 32, 0.5, 1.0)
	j := NewJPEGAct(quant.OptL5H())
	early := j.Compress(x, KindConv, 0)
	late := j.Compress(x, KindConv, 10)
	if late.Ratio() <= early.Ratio() {
		t.Fatalf("optL5H late ratio %v must exceed early %v", late.Ratio(), early.Ratio())
	}
	ee := tensor.L2Error(x, early.Recovered)
	el := tensor.L2Error(x, late.Recovered)
	if ee >= el {
		t.Fatalf("early error %v must be below late error %v", ee, el)
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
		rec, bytes := p.Roundtrip(x)
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
	// Lossless flags.
	if !ms[0].Lossless() || !ms[1].Lossless() {
		t.Fatal("baseline and cDMA+ are lossless")
	}
	for _, m := range ms[2:] {
		if m.Lossless() {
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

func TestCompressionErrorIsBounded(t *testing.T) {
	// Recovered activations from every lossy method must stay within a
	// sane error band of the input — the basic convergence prerequisite.
	x := correlatedAct(16, 2, 4, 16, 16)
	for _, m := range Standard()[2:] {
		res := m.Compress(x, KindConv, 0)
		if res.Recovered == nil {
			continue
		}
		if e := tensor.L2Error(x, res.Recovered); e > 0.05 {
			t.Fatalf("%s error %v too large", m.Name(), e)
		}
	}
}

func BenchmarkJPEGActRoundtrip(b *testing.B) {
	x := correlatedAct(17, 4, 16, 32, 32)
	p := JPEGAct(quant.OptH())
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Roundtrip(x)
	}
}
