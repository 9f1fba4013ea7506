package jpegact

import (
	"bytes"
	"errors"
	"testing"

	"jpegact/internal/data"
	"jpegact/internal/tensor"
)

func TestFacadeMethods(t *testing.T) {
	ms := Methods()
	if len(ms) != 9 {
		t.Fatalf("methods %d", len(ms))
	}
	if JPEGACT().Name() != "JPEG-ACT/optL5H" {
		t.Fatalf("JPEGACT name %q", JPEGACT().Name())
	}
	if JPEGBase(80).Name() != "JPEG-BASE/jpeg80" {
		t.Fatalf("JPEGBase name %q", JPEGBase(80).Name())
	}
}

func TestFacadeCompressActivation(t *testing.T) {
	r := tensor.NewRNG(1)
	x := data.ActivationTensor(r, 2, 4, 16, 16, 0.5, 1.0)
	res := CompressActivation(JPEGACT(), x, KindConv, 10)
	if res.Ratio() < 3 {
		t.Fatalf("ratio %v", res.Ratio())
	}
	if res.Recovered == nil || res.Recovered.Shape != x.Shape {
		t.Fatal("recovery broken")
	}
	mask := CompressActivation(JPEGACT(), x, KindReLUToOther, 0)
	if mask.Mask == nil {
		t.Fatal("BRC path broken")
	}
}

func TestFacadeTensorHelpers(t *testing.T) {
	x := NewTensor(1, 2, 3, 4)
	if x.Elems() != 24 {
		t.Fatalf("elems %d", x.Elems())
	}
	if DefaultS != 1.125 {
		t.Fatalf("DefaultS %v", DefaultS)
	}
}

func TestFacadeTraining(t *testing.T) {
	rep := TrainClassifier("ResNet18", ModelScale{Width: 6, Blocks: 1},
		TrainConfig{Method: JPEGACT(), Epochs: 1, BatchesPerEpoch: 2, BatchSize: 4}, 3)
	if rep.ModelName != "ResNet18" || len(rep.Epochs) != 1 {
		t.Fatalf("report %+v", rep)
	}
	sr := TrainSuperRes(ModelScale{Width: 4, Blocks: 1},
		TrainConfig{Method: SFPR(), Epochs: 1, BatchesPerEpoch: 2, BatchSize: 2, LR: 0.01}, 4)
	if sr.ModelName != "VDSR" {
		t.Fatalf("superres report %+v", sr)
	}
}

func TestFacadeOffloadedTraining(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 9, BitFlipPerByte: 1e-5})
	inj.ForceNextRecv(1)
	rep, stats, err := TrainClassifierOffloaded("ResNet18", ModelScale{Width: 6, Blocks: 1},
		TrainConfig{Epochs: 1, BatchesPerEpoch: 2, BatchSize: 4},
		OffloadTrainOptions{DQT: OptL(), Channel: inj, Policy: RecoverRecompute}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 1 {
		t.Fatalf("report %+v", rep)
	}
	if stats.Corrupted == 0 || stats.Recomputed == 0 {
		t.Fatalf("forced fault not recovered: %+v", stats)
	}
	if stats.Offloaded == 0 || stats.BytesVerified == 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestFacadeUnknownModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrainClassifier("AlexNet", ModelScale{}, TrainConfig{}, 1)
}

func TestFacadeOptimizeDQT(t *testing.T) {
	r := tensor.NewRNG(5)
	samples := []*Tensor{data.ActivationTensor(r, 1, 2, 16, 16, 0.5, 1)}
	d, trace := OptimizeDQT(JPEGQualityDQT(80), samples,
		DQTOptimizerConfig{Alpha: 0.01, Iters: 2, Grouped: true})
	if d.Entries[0] != 8 {
		t.Fatal("DC not pinned")
	}
	if len(trace) != 3 {
		t.Fatalf("trace %d", len(trace))
	}
}

func TestFacadeSchedules(t *testing.T) {
	fx := FixedDQT(OptH())
	if fx.For(100).Name != "optH" {
		t.Fatal("fixed schedule broken")
	}
	if OptL().Entries[0] != 8 || OptH().Entries[0] != 8 {
		t.Fatal("optimized DQTs must pin DC")
	}
}

func TestFacadeExtraMethods(t *testing.T) {
	r := tensor.NewRNG(20)
	x := data.ActivationTensor(r, 2, 4, 16, 16, 0.5, 1.0)
	hres := HardwareJPEGACT(FixedDQT(OptH()), 4).Compress(x, KindConv, 10)
	if hres.Recovered == nil || hres.Ratio() < 3 {
		t.Fatalf("hardware method broken: %v", hres.Ratio())
	}
}

func TestFacadeContainer(t *testing.T) {
	r := tensor.NewRNG(21)
	x := data.ActivationTensor(r, 1, 4, 16, 16, 0.5, 1.0)
	var buf bytes.Buffer
	n, err := WriteCompressed(&buf, x, OptH())
	if err != nil || n <= 0 || n != buf.Len() {
		t.Fatalf("write: %v %d", err, n)
	}
	file := buf.Bytes()
	got, err := ReadCompressed(bytes.NewReader(file), OptH())
	if err != nil || got.Shape != x.Shape {
		t.Fatalf("read: %v", err)
	}
	want := CompressActivation(JPEGACTWith(FixedDQT(OptH())), x, KindConv, 0).Recovered
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("element %d: read back %v, the method recovers %v", i, got.Data[i], v)
		}
	}
	// One flipped payload bit must be caught, not decoded.
	bad := append([]byte(nil), file...)
	bad[len(bad)-3] ^= 0x10
	if _, err := ReadCompressed(bytes.NewReader(bad), OptH()); !errors.Is(err, ErrFrameChecksum) {
		t.Fatalf("flipped bit: %v, want %v", err, ErrFrameChecksum)
	}
}
