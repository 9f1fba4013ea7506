// fault_injection trains a mini ResNet across a fault-injected offload
// channel and shows each recovery policy in action: the injector flips
// bits and drops transfers between the GPU and host memory, the framed
// container's CRC32C detects every corruption, and the store either
// fails with a typed error naming the ref, absorbs transient faults by
// re-reading the channel, or replays the forward pass and re-offloads —
// with a final trajectory bit-identical to a fault-free run.
package main

import (
	"errors"
	"fmt"

	"jpegact"
)

func main() {
	sc := jpegact.ModelScale{Width: 6, Blocks: 1}
	cfg := jpegact.TrainConfig{Epochs: 2, BatchesPerEpoch: 3, BatchSize: 4, LR: 0.05}

	// Baseline: the same run over a clean channel.
	clean, cleanStats, err := jpegact.TrainClassifierOffloaded("ResNet18", sc, cfg,
		jpegact.OffloadTrainOptions{DQT: jpegact.OptL()}, 42)
	check(err)
	fmt.Printf("clean channel:      final loss %.6f, %d activations offloaded, %d B verified\n",
		finalLoss(clean), cleanStats.Offloaded, cleanStats.BytesVerified)

	// PolicyFail: a forced corruption surfaces as a typed checksum error.
	inj := jpegact.NewFaultInjector(jpegact.FaultConfig{Seed: 7})
	inj.ForceNextRecv(1)
	_, _, err = jpegact.TrainClassifierOffloaded("ResNet18", sc, cfg,
		jpegact.OffloadTrainOptions{
			DQT: jpegact.OptL(), Channel: inj, Policy: jpegact.RecoverFail,
		}, 42)
	fmt.Printf("fail policy:        %v (is ErrFrameChecksum: %v)\n",
		err, errors.Is(err, jpegact.ErrFrameChecksum))

	// PolicyRetry: a transient fault is absorbed by re-reading the channel.
	inj = jpegact.NewFaultInjector(jpegact.FaultConfig{Seed: 7})
	inj.ForceNextRecv(1)
	rep, stats, err := jpegact.TrainClassifierOffloaded("ResNet18", sc, cfg,
		jpegact.OffloadTrainOptions{
			DQT: jpegact.OptL(), Channel: inj, Policy: jpegact.RecoverRetry, MaxRetries: 3,
		}, 42)
	check(err)
	fmt.Printf("retry policy:       final loss %.6f after %d corrupted / %d retried\n",
		finalLoss(rep), stats.Corrupted, stats.Retried)

	// PolicyRecompute: random bit flips and dropped buffers trigger
	// forward replays — the engine's prefetcher discovers them
	// mid-backward — and the trajectory still matches the clean run
	// exactly.
	inj = jpegact.NewFaultInjector(jpegact.FaultConfig{
		Seed: 81, BitFlipPerByte: 1e-5, DropRate: 0.02,
	})
	rep, stats, err = jpegact.TrainClassifierOffloaded("ResNet18", sc, cfg,
		jpegact.OffloadTrainOptions{
			DQT: jpegact.OptL(), Channel: inj, Policy: jpegact.RecoverRecompute,
		}, 42)
	check(err)
	is := inj.Stats()
	fmt.Printf("recompute policy:   final loss %.6f after %d flips + %d drops (%d recomputes)\n",
		finalLoss(rep), is.Flips, is.Drops, stats.Recomputed)
	if finalLoss(rep) == finalLoss(clean) {
		fmt.Println("faulty run is bit-identical to the fault-free run — recovery is invisible to training")
	} else {
		fmt.Println("BUG: faulty trajectory diverged from the clean run")
	}
}

func finalLoss(r jpegact.TrainReport) float64 {
	return r.Epochs[len(r.Epochs)-1].Loss
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
