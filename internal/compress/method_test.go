package compress_test

// Each Table I method's round trip, through the frame codecs of
// internal/offload/codec (which imports this package, hence the external
// test package).

import (
	"math"
	"testing"

	. "jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/offload/codec"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// compressAt is method m's round trip at the given epoch.
func compressAt(m Method, x *tensor.Tensor, kind Kind, epoch int) Result {
	return codec.For(m, epoch).Compress(kind, x)
}

func TestBaselineIdentity(t *testing.T) {
	x := CorrelatedAct(1, 1, 2, 16, 16)
	res := compressAt(Baseline{}, x, KindConv, 0)
	if res.Ratio() != 1 {
		t.Fatalf("ratio %v", res.Ratio())
	}
	if tensor.MSE(x, res.Recovered) != 0 {
		t.Fatal("baseline must be exact")
	}
}

func TestCDMAPlusDenseUncompressed(t *testing.T) {
	x := CorrelatedAct(2, 1, 2, 16, 16)
	res := compressAt(CDMAPlus{}, x, KindConv, 0)
	if res.Ratio() != 1 {
		t.Fatalf("dense ratio %v, want 1", res.Ratio())
	}
}

func TestCDMAPlusSparseRatio(t *testing.T) {
	x := ReLUAct(3, 2, 4, 16, 16)
	res := compressAt(CDMAPlus{}, x, KindReLUToConv, 0)
	// ~50% sparsity: ratio ≈ 32/(1+16) ≈ 1.9.
	if res.Ratio() < 1.5 || res.Ratio() > 3.5 {
		t.Fatalf("ZVC ratio %v out of expected band", res.Ratio())
	}
	if tensor.MSE(x, res.Recovered) != 0 {
		t.Fatal("cDMA+ must be lossless")
	}
}

func TestGISTDenseIs4x(t *testing.T) {
	x := CorrelatedAct(4, 1, 4, 16, 16)
	res := compressAt(GIST{}, x, KindConv, 0)
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
	x := ReLUAct(5, 1, 2, 8, 8)
	res := compressAt(GIST{}, x, KindReLUToOther, 0)
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
	x := CorrelatedAct(6, 1, 4, 16, 16) // dense
	res := compressAt(GIST{}, x, KindPoolDropout, 0)
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
	res2 := compressAt(GIST{}, sparse, KindPoolDropout, 0)
	if res2.Ratio() < 8 {
		t.Fatalf("CSR on 90%% sparsity ratio %v, want > 8", res2.Ratio())
	}
}

func TestSFPROnlyRatio(t *testing.T) {
	x := CorrelatedAct(7, 2, 8, 16, 16)
	res := compressAt(SFPROnly{}, x, KindConv, 0)
	if res.Ratio() < 3.8 || res.Ratio() > 4.0 {
		t.Fatalf("SFPR ratio %v, want ≈4", res.Ratio())
	}
	if e := tensor.L2Error(x, res.Recovered); e > 0.01 {
		t.Fatalf("SFPR error %v", e)
	}
}

func TestJPEGActBeatsSFPROnCorrelatedData(t *testing.T) {
	x := CorrelatedAct(8, 2, 8, 32, 32)
	sres := compressAt(SFPROnly{}, x, KindConv, 0)
	jres := compressAt(NewJPEGAct(quant.Fixed(quant.OptL())), x, KindConv, 0)
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
	l := compressAt(NewJPEGAct(quant.Fixed(quant.OptL())), x, KindConv, 0)
	h := compressAt(NewJPEGAct(quant.Fixed(quant.OptH())), x, KindConv, 0)
	el := tensor.L2Error(x, l.Recovered)
	eh := tensor.L2Error(x, h.Recovered)
	if el >= eh {
		t.Fatalf("optL error %v should be below optH error %v", el, eh)
	}
	if h.Ratio() <= l.Ratio() {
		t.Fatalf("optH ratio %v should exceed optL ratio %v", h.Ratio(), l.Ratio())
	}
}

func TestJPEGSmallActivationFallsBackToSFPR(t *testing.T) {
	x := CorrelatedAct(11, 1, 1, 4, 4) // W < 8: no 8×8 blocks
	j := NewJPEGAct(quant.Fixed(quant.OptH()))
	res := compressAt(j, x, KindConv, 0)
	if res.Ratio() < 2 || res.Ratio() > 4.1 {
		t.Fatalf("fallback ratio %v, want ≈4 (SFPR)", res.Ratio())
	}
}

func TestJPEGReLUPolicy(t *testing.T) {
	x := ReLUAct(12, 2, 4, 16, 16)
	j := NewJPEGAct(quant.OptL5H())
	toOther := compressAt(j, x, KindReLUToOther, 0)
	if toOther.Mask == nil {
		t.Fatal("ReLU(to other) must use BRC")
	}
	toConv := compressAt(j, x, KindReLUToConv, 0)
	if toConv.Recovered == nil {
		t.Fatal("ReLU(to conv) must keep values")
	}
	// SFPR+ZVC on ~50% sparsity: ratio ≈ 4 / (0.5 + 1/8) ≈ 6.4.
	if toConv.Ratio() < 4.5 {
		t.Fatalf("SFPR+ZVC ratio %v, want > 4.5", toConv.Ratio())
	}
	// JPEG-BASE has no ZVC: plain SFPR (≈4×).
	jb := NewJPEGBase(quant.JPEGQuality(80))
	bres := compressAt(jb, x, KindReLUToConv, 0)
	if bres.Ratio() > 4.05 {
		t.Fatalf("JPEG-BASE ReLU ratio %v, want ≈4", bres.Ratio())
	}
}

func TestScheduleSwitchesDQT(t *testing.T) {
	rr := tensor.NewRNG(13)
	x := data.ActivationTensor(rr, 1, 8, 32, 32, 0.5, 1.0)
	j := NewJPEGAct(quant.OptL5H())
	early := compressAt(j, x, KindConv, 0)
	late := compressAt(j, x, KindConv, 10)
	if late.Ratio() <= early.Ratio() {
		t.Fatalf("optL5H late ratio %v must exceed early %v", late.Ratio(), early.Ratio())
	}
	ee := tensor.L2Error(x, early.Recovered)
	el := tensor.L2Error(x, late.Recovered)
	if ee >= el {
		t.Fatalf("early error %v must be below late error %v", ee, el)
	}
}

func TestCompressionErrorIsBounded(t *testing.T) {
	// Recovered activations from every lossy method must stay within a
	// sane error band of the input — the basic convergence prerequisite.
	x := CorrelatedAct(16, 2, 4, 16, 16)
	for _, m := range Standard()[2:] {
		res := compressAt(m, x, KindConv, 0)
		if res.Recovered == nil {
			continue
		}
		if e := tensor.L2Error(x, res.Recovered); e > 0.05 {
			t.Fatalf("%s error %v too large", m.Name(), e)
		}
	}
}
