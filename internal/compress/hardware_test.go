package compress_test

import (
	"testing"

	. "jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func TestHardwareJPEGACTMatchesFunctional(t *testing.T) {
	// The hardware datapath must recover activations close to the float
	// functional pipeline (same DQT), and account comparable bytes.
	r := tensor.NewRNG(32)
	x := data.ActivationTensor(r, 2, 8, 32, 32, 0.5, 1.0)
	hwm := NewHardwareJPEGACT(quant.Fixed(quant.OptH()), 4)
	sw := NewJPEGAct(quant.Fixed(quant.OptH()))

	hres := compressAt(hwm, x, KindConv, 0)
	sres := compressAt(sw, x, KindConv, 0)

	if hres.Recovered.Shape != x.Shape {
		t.Fatal("shape lost")
	}
	eh := tensor.L2Error(x, hres.Recovered)
	es := tensor.L2Error(x, sres.Recovered)
	if eh > 1.5*es+1e-9 {
		t.Fatalf("hardware error %v too far above software %v", eh, es)
	}
	ratioDelta := hres.Ratio() / sres.Ratio()
	if ratioDelta < 0.85 || ratioDelta > 1.25 {
		t.Fatalf("hardware ratio %v vs software %v", hres.Ratio(), sres.Ratio())
	}
	if hwm.TotalCycles.Load() <= 0 {
		t.Fatal("no cycles accounted")
	}
}

func TestHardwareJPEGACTPolicyFallback(t *testing.T) {
	hwm := NewHardwareJPEGACT(quant.OptL5H(), 4)
	x := ReLUAct(33, 2, 4, 16, 16)
	res := compressAt(hwm, x, KindReLUToOther, 0)
	if res.Mask == nil {
		t.Fatal("BRC policy must apply")
	}
	small := CorrelatedAct(34, 1, 1, 4, 4)
	res2 := compressAt(hwm, small, KindConv, 0)
	if res2.Recovered == nil || res2.Ratio() > 4.1 {
		t.Fatalf("small activation fallback broken: %v", res2.Ratio())
	}
	if hwm.Name() != "JPEG-ACT-HW/optL5H" {
		t.Fatalf("name %q", hwm.Name())
	}
}

func TestHardwareJPEGACTUnpaddedShapes(t *testing.T) {
	// Shapes requiring NCH/W padding must roundtrip through the hardware
	// block layout.
	r := tensor.NewRNG(35)
	for _, sh := range []tensor.Shape{
		{N: 1, C: 3, H: 6, W: 10},
		{N: 2, C: 2, H: 13, W: 9},
	} {
		x := tensor.New(sh.N, sh.C, sh.H, sh.W)
		x.FillNormal(r, 0, 1)
		hwm := NewHardwareJPEGACT(quant.Fixed(quant.OptL()), 2)
		res := compressAt(hwm, x, KindConv, 0)
		if res.Recovered.Shape != sh {
			t.Fatalf("shape %v -> %v", sh, res.Recovered.Shape)
		}
		if e := tensor.L2Error(x, res.Recovered); e > 0.05 {
			t.Fatalf("shape %v error %v", sh, e)
		}
	}
}

func TestPolicyForExtraMethods(t *testing.T) {
	hw := NewHardwareJPEGACT(quant.OptL5H(), 4)
	if PolicyFor(hw, KindConv) != "CDU(SFPR+DCT+SH+ZVC)" ||
		PolicyFor(hw, KindReLUToOther) != "BRC" ||
		PolicyFor(hw, KindPoolDropout) != "SFPR+ZVC" {
		t.Fatal("hardware policy")
	}
}
