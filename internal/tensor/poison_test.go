package tensor_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/faults"
	"jpegact/internal/models"
	"jpegact/internal/nn"
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
// steps of every model, an offloaded run whose corrupted frames are
// recomputed, clean offloaded runs restoring ahead and on demand, and a
// two-replica data-parallel run must each land on the weights of the same
// run unpoisoned, at one worker and at three.
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
	// Clean offloaded runs at lookahead 4 (prefetched restores, and from
	// the second step on the held tail) and 0 (every restore on demand):
	// each restore decodes into a poisoned buffer drawn from the arena its
	// commit released the tensor to.
	for _, lookahead := range []int{4, 0} {
		runs = append(runs, run{fmt.Sprintf("ResNet18 offload lookahead %d", lookahead), func(t *testing.T) string {
			m := build("ResNet18")
			return offloadedSteps(t, m, classes(m), lookahead, 3, cfg.BatchSize)
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

// offloadedSteps trains m for steps steps through an offload engine with
// the given restore lookahead over a clean in-process channel, the
// trainer's offloaded step spelled out (the trainer's own lookahead is a
// constant), and returns a digest of the weights.
func offloadedSteps(t *testing.T, m *models.Model, ds *data.Classification, lookahead, steps, batch int) string {
	store := offload.NewStore(quant.OptL())
	defer store.Close()
	eng := offload.NewEngine(store, offload.EngineConfig{Prefetch: lookahead})
	defer eng.Close()
	a := tensor.NewArena()
	opt := nn.NewSGD(0.01, 0.9, 0)
	for range steps {
		x, labels := ds.Batch(batch)
		eng.BeginStep()
		nn.SetHooks(m.Net, &nn.Hooks{OnSave: eng.Offload})
		out := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: a.Wrap(x)}, true)
		_, grad := nn.SoftmaxCrossEntropy(out.T, labels)
		if _, _, err := eng.EndForward(m.Net.SavedRefs()); err != nil {
			t.Fatal(err)
		}
		if err := eng.PrepareBackward(); err != nil {
			t.Fatal(err)
		}
		nn.SetHooks(m.Net, &nn.Hooks{OnNeed: func(ref *nn.ActRef) {
			if err := eng.Restore(ref); err != nil {
				t.Fatal(err)
			}
		}})
		m.Net.Backward(grad)
		nn.SetHooks(m.Net, nil)
		if err := eng.EndStep(); err != nil {
			t.Fatal(err)
		}
		a.Reset()
		opt.Step(m.Net.Params())
	}
	h := sha256.New()
	for _, p := range m.Net.Params() {
		for _, v := range p.W.Data {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
