package nn_test

import (
	"testing"

	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
	"jpegact/internal/train"
)

// TestPoisonedScratchTrainsBitIdentical trains every classifier with each
// scratch buffer filled with NaN before it is handed out. A draw may be a
// larger buffer some other kernel left dirty, so a kernel that reads
// scratch it did not write — a padded plane's zero frame, a packed
// panel's zero tail — moves the weights or makes them NaN. Two steps of
// batch 2 must land on the weights of the same run unpoisoned at one
// worker (the batch elements are the shards) and at three (one serial
// range whose GEMMs split their rows).
func TestPoisonedScratchTrainsBitIdentical(t *testing.T) {
	const seed = 13
	cfg := train.Config{Epochs: 1, BatchesPerEpoch: 2, BatchSize: 2, Seed: seed}
	build := func(name string) *models.Model {
		m, _ := models.ByName(name, models.Scale{}, 4, tensor.NewRNG(seed))
		return m
	}
	for _, workers := range []int{1, 3} {
		prev := parallel.SetWorkers(workers)
		for _, name := range models.Names {
			if build(name).Task == models.SuperRes {
				continue
			}
			run := func() string {
				m := build(name)
				d := data.NewClassification(data.ClassificationConfig{
					Classes: 4, Channels: 3, H: m.H, W: m.W, Noise: 0.4, Seed: seed,
				})
				return train.Classifier(m, d, cfg).WeightsDigest
			}
			clean := run()
			restore := nn.PoisonScratch()
			poisoned := run()
			restore()
			if poisoned != clean {
				t.Errorf("%s at %d workers: weights %s poisoned, %s clean", name, workers, poisoned, clean)
			}
		}
		parallel.SetWorkers(prev)
	}
}
