package tensor_test

import (
	"testing"

	"jpegact/internal/data"
	"jpegact/internal/faults"
	"jpegact/internal/models"
	"jpegact/internal/offload"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
	"jpegact/internal/train"
)

// TestPoisonedArenaTrainsBitIdentical trains through the step arena with
// every buffer filled with NaN before it is handed out. A kernel that
// reads an element it did not write, or a tensor read after its buffer
// went back and out again, then moves the weights or makes them NaN. Two
// steps of every model, a clean offloaded run of every classifier, an
// offloaded run whose corrupted frames are recomputed and a two-replica
// data-parallel run must each land on the weights of the same run
// unpoisoned, at one worker and at three.
func TestPoisonedArenaTrainsBitIdentical(t *testing.T) {
	const seed = 11
	cfg := train.Config{Epochs: 1, BatchesPerEpoch: 2, BatchSize: 4, Seed: seed}
	classes := func(m *models.Model) *data.Classification {
		return data.NewClassification(data.ClassificationConfig{
			Classes: 4, Channels: 3, H: m.H, W: m.W, Noise: 0.4, Seed: seed,
		})
	}
	build := func(name string) *models.Model {
		m, _ := models.ByName(name, models.Scale{}, 4, tensor.NewRNG(seed))
		return m
	}
	type run struct {
		name  string
		train func(t *testing.T) string // the weights digest
	}
	var runs []run
	for _, name := range models.Names {
		runs = append(runs, run{name, func(*testing.T) string {
			m := build(name)
			if m.Task == models.SuperRes {
				return train.SuperResolution(m, data.NewSuperRes(m.H, m.W, seed), cfg).WeightsDigest
			}
			return train.Classifier(m, classes(m), cfg).WeightsDigest
		}})
	}
	runs = append(runs, run{"ResNet18 offload recompute", func(t *testing.T) string {
		m := build("ResNet18")
		inj := faults.New(faults.Config{Seed: 77, BitFlipPerByte: 1e-5})
		inj.ForceNextRecv(1)
		rep, stats, err := train.ClassifierOffloaded(m, classes(m), cfg, train.OffloadOptions{
			DQT: quant.OptL(), Policy: offload.PolicyRecompute, Channel: inj,
		})
		if err != nil || stats.Recomputed == 0 {
			t.Fatalf("recomputed %d, error %v: the recovery path did not run", stats.Recomputed, err)
		}
		return rep.WeightsDigest
	}})
	// A clean offloaded run of every classifier (prefetched restores, and
	// from the second step on the held tail): each restore decodes into a
	// poisoned buffer drawn from the arena its commit released the tensor
	// to, and its last backward reader hands that buffer back mid-backward.
	for _, name := range models.Names {
		if build(name).Task == models.SuperRes {
			continue // SuperResolution offloads only under a lossy Method
		}
		runs = append(runs, run{name + " offload", func(t *testing.T) string {
			m := build(name)
			rep, _, err := train.ClassifierOffloaded(m, classes(m), cfg, train.OffloadOptions{DQT: quant.OptL()})
			if err != nil {
				t.Fatal(err)
			}
			return rep.WeightsDigest
		}})
	}
	runs = append(runs, run{"WRN data-parallel K=2", func(t *testing.T) string {
		newModel := func() *models.Model { return build("WRN") }
		rep, _, err := train.ClassifierDataParallel(newModel, classes(newModel()), cfg, train.DPOptions{Replicas: 2, Microbatches: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rep.WeightsDigest
	}})

	for _, workers := range []int{1, 3} {
		prev := parallel.SetWorkers(workers)
		for _, r := range runs {
			clean := r.train(t)
			restore := tensor.Poison()
			poisoned := r.train(t)
			restore()
			if poisoned != clean {
				t.Errorf("%s at %d workers: weights %s poisoned, %s clean", r.name, workers, poisoned, clean)
			}
		}
		parallel.SetWorkers(prev)
	}
}
