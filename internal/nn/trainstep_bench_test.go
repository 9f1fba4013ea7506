package nn_test

import (
	"runtime"
	"testing"

	"jpegact"
	"jpegact/internal/nn"
)

// BenchmarkTrainStep measures a train_plain round of bash bench/run.sh:
// the mini ResNet18 at width 16 on 32×32 images, eight steps of batch 8
// and the validation pass, model build included. The step arena lives
// for one trainer call, so only a round shows its reuse across steps.
// B/op and gcs/op are per round; ns/step divides the round by its steps,
// arena-B is the step arena's high-water the round reports, and scratch-B
// is what nn's scratch list holds after the run, started empty. It lives
// beside the list because the list is unexported.
func BenchmarkTrainStep(b *testing.B) {
	const steps = 8
	b.ReportAllocs()
	nn.EmptyScratch()
	var before, after runtime.MemStats
	var rep jpegact.TrainReport
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		rep = jpegact.TrainClassifier("ResNet18", jpegact.ModelScale{Width: 16, Blocks: 1, H: 32, W: 32}, jpegact.TrainConfig{
			Method: jpegact.Baseline(), Epochs: 1, BatchesPerEpoch: steps, BatchSize: 8, LR: 0.05, Momentum: 0.9,
		}, 42)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
	b.ReportMetric(float64(rep.ArenaHighWater), "arena-B")
	b.ReportMetric(float64(nn.ScratchBytes()), "scratch-B")
}
