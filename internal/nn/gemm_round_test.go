package nn_test

import (
	"testing"

	"jpegact"
	"jpegact/internal/nn"
)

// TestTrainingRoundAsmEqualsPortable trains whole rounds through the
// facade twice — on the platform's GEMM kernel and with it unplugged —
// and compares the weights digests: the assembly kernel may change how
// fast a trajectory is computed, never the trajectory. ResNet18 covers
// every conv shape of the bench model (k2 = 27 row tails included); the
// lossy VGG round adds compression error and max-pooling to the inputs.
func TestTrainingRoundAsmEqualsPortable(t *testing.T) {
	rounds := []struct {
		model  string
		scale  jpegact.ModelScale
		method jpegact.Method
	}{
		{"ResNet18", jpegact.ModelScale{Width: 16, Blocks: 1, H: 32, W: 32}, jpegact.Baseline()},
		{"VGG", jpegact.ModelScale{Width: 8, Blocks: 1, H: 16, W: 16}, jpegact.JPEGACT()},
	}
	for _, r := range rounds {
		round := func() string {
			cfg := jpegact.TrainConfig{Method: r.method, Epochs: 1, BatchesPerEpoch: 3, BatchSize: 4, LR: 0.05, Momentum: 0.9, Seed: 42}
			rep := jpegact.TrainClassifier(r.model, r.scale, cfg, 42)
			if rep.Diverged || rep.WeightsDigest == "" {
				t.Fatalf("%s: round did not finish: %+v", r.model, rep)
			}
			return rep.WeightsDigest
		}
		native := round()
		var portable string
		if !nn.WithPortableGemm(func() { portable = round() }) {
			t.Skip("no assembly GEMM kernel on this platform or CPU")
		}
		if native != portable {
			t.Errorf("%s: weights sha256 %s on the assembly kernel, %s on the portable one", r.model, native, portable)
		}
	}
}
