package jpegact

// One benchmark per table and figure of the paper's evaluation: each
// regenerates its experiment at reduced (Quick) scale through the same
// runner cmd/actbench uses, so `go test -bench=.` exercises every
// reproduction path. Full-scale numbers are committed in EXPERIMENTS.md
// and regenerated with `actbench -all`.

import (
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
	p := compress.Pipeline{DQT: quant.OptH(), UseShift: shift, UseZVC: zvc}
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	var bytes int
	for i := 0; i < b.N; i++ {
		_, bytes = p.Roundtrip(x)
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

// BenchmarkTrainStep measures one full compressed training step of the
// mini ResNet50 — the end-to-end functional-simulation unit of work.
func BenchmarkTrainStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrainClassifier("ResNet50", ModelScale{Width: 8, Blocks: 1}, TrainConfig{
			Method: JPEGACT(), Epochs: 1, BatchesPerEpoch: 1, BatchSize: 8,
		}, 42)
	}
}
