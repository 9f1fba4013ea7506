package train

import (
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func tinyDataset(seed uint64) *data.Classification {
	return data.NewClassification(data.ClassificationConfig{
		Classes: 2, Channels: 3, H: 16, W: 16, Noise: 0.4, Seed: seed,
	})
}

func tinyConfig(m compress.Method) Config {
	return Config{
		Method: m, Epochs: 3, BatchesPerEpoch: 8, BatchSize: 8,
		LR: 0.05, MeasureError: true,
	}
}

func TestBaselineTrainingLearns(t *testing.T) {
	m := models.ResNet18(models.Scale{Width: 8, Blocks: 1}, 2, tensor.NewRNG(1))
	rep := Classifier(m, tinyDataset(2), tinyConfig(compress.Baseline{}))
	if rep.Diverged {
		t.Fatal("baseline diverged")
	}
	if rep.BestScore < 0.6 {
		t.Fatalf("baseline best accuracy %v", rep.BestScore)
	}
	if rep.FinalRatio != 1 {
		t.Fatalf("baseline ratio %v", rep.FinalRatio)
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("epochs %d", len(rep.Epochs))
	}
}

func TestJPEGActTrainingMatchesBaseline(t *testing.T) {
	// The headline claim: training under JPEG-ACT/optL5H converges with
	// accuracy close to uncompressed, at a much higher compression ratio.
	mkModel := func(seed uint64) *models.Model {
		return models.ResNet18(models.Scale{Width: 8, Blocks: 1}, 2, tensor.NewRNG(seed))
	}
	base := Classifier(mkModel(3), tinyDataset(4), tinyConfig(compress.Baseline{}))
	act := Classifier(mkModel(3), tinyDataset(4), tinyConfig(compress.NewJPEGAct(quant.OptL5H())))
	if act.Diverged {
		t.Fatal("JPEG-ACT diverged")
	}
	if act.BestScore < base.BestScore-0.25 {
		t.Fatalf("JPEG-ACT accuracy %v too far below baseline %v", act.BestScore, base.BestScore)
	}
	if act.FinalRatio < 3 {
		t.Fatalf("JPEG-ACT ratio %v, want > 3", act.FinalRatio)
	}
}

func TestFootprintBreakdown(t *testing.T) {
	m := models.VGG(models.Scale{Width: 8}, 2, tensor.NewRNG(5))
	rep := Classifier(m, tinyDataset(6), tinyConfig(compress.NewJPEGAct(quant.Fixed(quant.OptL()))))
	if len(rep.Footprint) < 2 {
		t.Fatalf("footprint entries %d", len(rep.Footprint))
	}
	kinds := map[compress.Kind]bool{}
	total := 0
	for _, fe := range rep.Footprint {
		kinds[fe.Kind] = true
		total += fe.OriginalBytes
		if fe.CompressedBytes <= 0 || fe.OriginalBytes <= 0 {
			t.Fatalf("empty footprint entry %+v", fe)
		}
	}
	if !kinds[compress.KindConv] || !kinds[compress.KindPoolDropout] {
		t.Fatal("VGG must produce conv and pool/dropout footprints")
	}
	if total == 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestMethodsRatioOrdering(t *testing.T) {
	// cDMA+ < SFPR ≈ 4 < JPEG-ACT on the ResNet workload (Table I shape).
	ratios := map[string]float64{}
	for _, meth := range []compress.Method{
		compress.CDMAPlus{}, compress.SFPROnly{}, compress.NewJPEGAct(quant.Fixed(quant.OptH())),
	} {
		m := models.ResNet18(models.Scale{Width: 8, Blocks: 1}, 2, tensor.NewRNG(7))
		rep := Classifier(m, tinyDataset(8), tinyConfig(meth))
		ratios[meth.Name()] = rep.FinalRatio
	}
	if !(ratios["cDMA+"] < ratios["SFPR"] && ratios["SFPR"] < ratios["JPEG-ACT/optH"]) {
		t.Fatalf("ratio ordering violated: %v", ratios)
	}
}

func TestErrorMeasurement(t *testing.T) {
	m := models.ResNet18(models.Scale{Width: 8, Blocks: 1}, 2, tensor.NewRNG(9))
	rep := Classifier(m, tinyDataset(10), tinyConfig(compress.NewJPEGAct(quant.Fixed(quant.OptH()))))
	if rep.Epochs[0].ActL2Error <= 0 {
		t.Fatal("error measurement missing")
	}
	base := Classifier(models.ResNet18(models.Scale{Width: 8, Blocks: 1}, 2, tensor.NewRNG(9)),
		tinyDataset(10), tinyConfig(compress.Baseline{}))
	if base.Epochs[0].ActL2Error != 0 {
		t.Fatal("baseline must have zero activation error")
	}
}

func TestSuperResolutionTraining(t *testing.T) {
	m := models.VDSR(models.Scale{Width: 6, Blocks: 1, H: 16, W: 16}, tensor.NewRNG(11))
	ds := data.NewSuperRes(16, 16, 12)
	cfg := Config{Method: compress.NewJPEGAct(quant.OptL5H()), Epochs: 2, BatchesPerEpoch: 4, BatchSize: 2, LR: 0.01, MeasureError: true}
	rep := SuperResolution(m, ds, cfg)
	if rep.Diverged {
		t.Fatal("VDSR diverged")
	}
	if rep.BestScore < 5 {
		t.Fatalf("VDSR PSNR %v unreasonably low", rep.BestScore)
	}
	if rep.FinalRatio < 2 {
		t.Fatalf("VDSR ratio %v", rep.FinalRatio)
	}
}

func TestRunDispatch(t *testing.T) {
	cls := tinyDataset(13)
	sr := data.NewSuperRes(16, 16, 14)
	cfg := Config{Method: compress.Baseline{}, Epochs: 1, BatchesPerEpoch: 2, BatchSize: 2}
	rc := Run(models.ResNet18(models.Scale{Width: 4, Blocks: 1}, 2, tensor.NewRNG(15)), cls, sr, cfg)
	if rc.ModelName != "ResNet18" {
		t.Fatal("classifier dispatch failed")
	}
	rs := Run(models.VDSR(models.Scale{Width: 4, Blocks: 1}, tensor.NewRNG(16)), cls, sr, cfg)
	if rs.ModelName != "VDSR" {
		t.Fatal("superres dispatch failed")
	}
}

func TestAggressiveQuantizationHurtsMore(t *testing.T) {
	// A pathologically strong DQT must produce higher activation error
	// than optL — the basic rate/distortion sanity of the whole loop.
	mk := func() *models.Model {
		return models.ResNet18(models.Scale{Width: 8, Blocks: 1}, 2, tensor.NewRNG(17))
	}
	gentle := Classifier(mk(), tinyDataset(18), tinyConfig(compress.NewJPEGAct(quant.Fixed(quant.OptL()))))
	harsh := Classifier(mk(), tinyDataset(18), tinyConfig(compress.NewJPEGAct(quant.Fixed(quant.Uniform("crush", 64, 255)))))
	if gentle.Epochs[0].ActL2Error >= harsh.Epochs[0].ActL2Error {
		t.Fatalf("gentle err %v should be below harsh err %v",
			gentle.Epochs[0].ActL2Error, harsh.Epochs[0].ActL2Error)
	}
}

func TestHardwareMethodTrainsLikeFunctional(t *testing.T) {
	// Training under the cycle-level hardware datapath must track the
	// functional JPEG-ACT pipeline.
	mk := func() *models.Model {
		return models.ResNet18(models.Scale{Width: 8, Blocks: 1}, 2, tensor.NewRNG(42))
	}
	sw := Classifier(mk(), tinyDataset(43), tinyConfig(compress.NewJPEGAct(quant.Fixed(quant.OptL()))))
	hwm := compress.NewHardwareJPEGACT(quant.Fixed(quant.OptL()), 4)
	hw := Classifier(mk(), tinyDataset(43), tinyConfig(hwm))
	if hw.Diverged {
		t.Fatal("hardware-path training diverged")
	}
	if hw.BestScore < sw.BestScore-0.2 {
		t.Fatalf("hardware score %v too far below functional %v", hw.BestScore, sw.BestScore)
	}
	if hwm.TotalCycles.Load() <= 0 {
		t.Fatal("no CDU cycles accounted during training")
	}
}

func TestAnnealingRescuesStrongQuantization(t *testing.T) {
	// The optL5H mechanism (§IV/§VI-B): training with a crushing DQT from
	// epoch 0 degrades accuracy; annealing the first epochs with optL
	// before switching to the same crushing table largely rescues it.
	mk := func() *models.Model {
		return models.ResNet18(models.Scale{Width: 8, Blocks: 1}, 2, tensor.NewRNG(50))
	}
	ds := data.NewClassification(data.ClassificationConfig{
		Classes: 2, Channels: 3, H: 16, W: 16, Noise: 0.6, Seed: 51,
	})
	cfg := train6(compress.NewJPEGAct(quant.Fixed(quant.Uniform("crush", 64, 255))))
	fixed := Classifier(mk(), ds, cfg)
	cfg.Method = compress.NewJPEGAct(quant.Schedule{
		Name: "anneal", Early: quant.OptL(), Late: quant.Uniform("crush", 64, 255), SwitchAt: 4,
	})
	annealed := Classifier(mk(), ds, cfg)
	if annealed.BestScore < fixed.BestScore {
		t.Fatalf("annealed %v should not trail fixed-crush %v",
			annealed.BestScore, fixed.BestScore)
	}
}

func train6(m compress.Method) Config {
	return Config{Method: m, Epochs: 6, BatchesPerEpoch: 8, BatchSize: 8, LR: 0.05}
}
