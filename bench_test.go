package jpegact

// One benchmark per table and figure of the paper's evaluation: each
// regenerates its experiment at reduced (Quick) scale through the same
// runner cmd/actbench uses, so `go test -bench=.` exercises every
// reproduction path. Full-scale numbers are committed in EXPERIMENTS.md
// and regenerated with `actbench -all`.

import (
	"runtime"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/experiments"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	o := experiments.Options{Quick: true, Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig1a(b *testing.B)      { benchExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B)      { benchExperiment(b, "fig1b") }
func BenchmarkFig2(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig6(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig10(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig16(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)      { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)      { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)      { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)      { benchExperiment(b, "fig21") }
func BenchmarkTable1(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)     { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkMemory(b *testing.B)     { benchExperiment(b, "memory") }
func BenchmarkCapacity(b *testing.B)   { benchExperiment(b, "capacity") }
func BenchmarkDivergence(b *testing.B) { benchExperiment(b, "divergence") }
func BenchmarkTTA(b *testing.B)        { benchExperiment(b, "tta") }

// Ablation benches for the design choices DESIGN.md calls out: the SH
// quantizer vs exact DIV, ZVC vs the JPEG entropy coder, and the
// hardware datapath vs the functional pipeline.
func BenchmarkAblationDIVRLE(b *testing.B) { benchPipeline(b, false, false) }
func BenchmarkAblationSHRLE(b *testing.B)  { benchPipeline(b, true, false) }
func BenchmarkAblationDIVZVC(b *testing.B) { benchPipeline(b, false, true) }
func BenchmarkAblationSHZVC(b *testing.B)  { benchPipeline(b, true, true) }

func benchPipeline(b *testing.B, shift, zvc bool) {
	r := tensor.NewRNG(4)
	x := data.ActivationTensor(r, 4, 16, 32, 32, 0.5, 1.0)
	p := compress.Pipeline{DQT: quant.OptH(), UseShift: shift}
	encode, decode := p.EncodeRLE, p.DecodeRLEInto
	if zvc {
		encode, decode = p.Encode, p.DecodeInto
	}
	out := NewTensor(x.Shape.N, x.Shape.C, x.Shape.H, x.Shape.W)
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	var bytes int
	for i := 0; i < b.N; i++ {
		payload, scales := encode(x)
		if err := decode(payload, scales, out); err != nil {
			b.Fatal(err)
		}
		bytes = len(payload) + 4*len(scales)
	}
	b.ReportMetric(float64(x.Bytes())/float64(bytes), "ratio")
}

func BenchmarkAblationHardwareVsFunctional(b *testing.B) {
	r := tensor.NewRNG(5)
	x := data.ActivationTensor(r, 2, 8, 32, 32, 0.5, 1.0)
	m := HardwareJPEGACT(quant.OptL5H(), 4)
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompressActivation(m, x, KindConv, 10)
	}
}

// Micro-benchmarks of the core compression path: throughput of the full
// JPEG-ACT method on a realistic dense activation (the per-activation
// cost the functional simulation pays each training step).
func BenchmarkCompressJPEGACT(b *testing.B) {
	r := tensor.NewRNG(1)
	x := data.ActivationTensor(r, 4, 16, 32, 32, 0.5, 1.0)
	m := JPEGACT()
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompressActivation(m, x, KindConv, 10)
	}
}

func BenchmarkCompressGIST(b *testing.B) {
	r := tensor.NewRNG(2)
	x := data.ActivationTensor(r, 4, 16, 32, 32, 0.5, 1.0)
	m := GIST()
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompressActivation(m, x, KindConv, 0)
	}
}

func BenchmarkCompressSFPR(b *testing.B) {
	r := tensor.NewRNG(3)
	x := data.ActivationTensor(r, 4, 16, 32, 32, 0.5, 1.0)
	m := SFPR()
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompressActivation(m, x, KindConv, 0)
	}
}

// BenchmarkTrainStep measures a train_plain round of bash bench/run.sh:
// the mini ResNet18 at width 16 on 32×32 images, eight steps of batch 8
// and the validation pass, model build included. The step arena lives
// for one trainer call, so only a round shows its reuse across steps.
// B/op and gcs/op are per round; ns/step divides the round by its steps.
func BenchmarkTrainStep(b *testing.B) {
	const steps = 8
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		TrainClassifier("ResNet18", ModelScale{Width: 16, Blocks: 1, H: 32, W: 32}, TrainConfig{
			Method: Baseline(), Epochs: 1, BatchesPerEpoch: steps, BatchSize: 8, LR: 0.05, Momentum: 0.9,
		}, 42)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}
