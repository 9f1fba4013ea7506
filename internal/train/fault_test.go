package train

import (
	"errors"
	"strings"
	"testing"

	"jpegact/internal/data"
	"jpegact/internal/faults"
	"jpegact/internal/frame"
	"jpegact/internal/models"
	"jpegact/internal/offload"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func faultModel(seed uint64) (*models.Model, *data.Classification) {
	m := models.ResNet18(models.Scale{Width: 6, Blocks: 1}, 2, tensor.NewRNG(seed))
	ds := data.NewClassification(data.ClassificationConfig{
		Classes: 2, Channels: 3, H: 16, W: 16, Seed: seed + 1,
	})
	return m, ds
}

// atWorkers runs the rest of the calling test at n parallel workers;
// results are bit-identical at any count, the tests pin one so the
// parallel paths run whatever the host has.
func atWorkers(t testing.TB, n int) {
	prev := parallel.SetWorkers(n)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
}

// faultCfg is the short run the offload tests share; it also pins the
// calling test to two parallel workers.
func faultCfg(t testing.TB) Config {
	atWorkers(t, 2)
	return Config{Epochs: 2, BatchesPerEpoch: 3, BatchSize: 4, LR: 0.05}
}

func sameEpochs(t *testing.T, a, b Report, label string) {
	t.Helper()
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("%s: %d vs %d epochs", label, len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		if a.Epochs[i].Loss != b.Epochs[i].Loss {
			t.Fatalf("%s: epoch %d loss %v vs %v", label, i, a.Epochs[i].Loss, b.Epochs[i].Loss)
		}
		if a.Epochs[i].Score != b.Epochs[i].Score {
			t.Fatalf("%s: epoch %d score %v vs %v", label, i, a.Epochs[i].Score, b.Epochs[i].Score)
		}
	}
	if a.WeightsDigest == "" || a.WeightsDigest != b.WeightsDigest {
		t.Fatalf("%s: weights digest %q vs %q", label, a.WeightsDigest, b.WeightsDigest)
	}
}

// TestOffloadedTrainingCleanChannel: the offloaded trainer over a clean
// channel must converge and report a real compression ratio.
func TestOffloadedTrainingCleanChannel(t *testing.T) {
	m, ds := faultModel(100)
	rep, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), OffloadOptions{DQT: quant.OptL()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatal("diverged on a clean channel")
	}
	if rep.FinalRatio <= 1 {
		t.Fatalf("compression ratio %v", rep.FinalRatio)
	}
	if stats.Corrupted != 0 || stats.Recomputed != 0 {
		t.Fatalf("clean channel produced faults: %+v", stats)
	}
	if stats.Offloaded == 0 || stats.Offloaded != stats.Restored {
		t.Fatalf("offload/restore imbalance: %+v", stats)
	}
	if stats.BytesVerified != stats.BytesOffloaded {
		t.Fatalf("verified %d of %d offloaded bytes", stats.BytesVerified, stats.BytesOffloaded)
	}
}

// TestOffloadedTrainingRecomputeBitExact is the end-to-end fault test of
// the acceptance criteria: with the injector flipping bits at 1e-5/byte
// (plus one forced corruption so the recompute path is guaranteed to
// fire), training under PolicyRecompute completes and produces exactly
// the losses of (a) a bit-exact re-run with the same seeds and (b) a
// fault-free run — corruption recovery is invisible to the training
// trajectory.
func TestOffloadedTrainingRecomputeBitExact(t *testing.T) {
	run := func(faulty bool) (Report, offload.Stats) {
		m, ds := faultModel(200)
		oc := OffloadOptions{DQT: quant.OptL(), Policy: offload.PolicyRecompute}
		if faulty {
			inj := faults.New(faults.Config{Seed: 77, BitFlipPerByte: 1e-5})
			inj.ForceNextRecv(1)
			oc.Channel = inj
		}
		rep, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), oc)
		if err != nil {
			t.Fatal(err)
		}
		return rep, stats
	}

	clean, _ := run(false)
	faultyA, statsA := run(true)
	faultyB, statsB := run(true)

	if statsA.Recomputed == 0 {
		t.Fatal("no recompute happened; the fault path was not exercised")
	}
	if statsA.Corrupted == 0 {
		t.Fatal("no corruption detected")
	}
	if statsA != statsB {
		t.Fatalf("fault runs not deterministic: %+v vs %+v", statsA, statsB)
	}
	sameEpochs(t, faultyA, faultyB, "faulty re-run")
	sameEpochs(t, faultyA, clean, "faulty vs fault-free")
}

// TestOffloadedTrainingFailPolicy: under PolicyFail a corrupted frame
// surfaces as a typed ErrChecksum naming the corrupted ref, and training
// stops.
func TestOffloadedTrainingFailPolicy(t *testing.T) {
	m, ds := faultModel(300)
	inj := faults.New(faults.Config{Seed: 78})
	inj.ForceNextRecv(1)
	_, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), OffloadOptions{
		DQT: quant.OptL(), Channel: inj, Policy: offload.PolicyFail,
	})
	if err == nil {
		t.Fatal("forced corruption under PolicyFail must error")
	}
	if !errors.Is(err, frame.ErrChecksum) {
		t.Fatalf("want frame.ErrChecksum, got %v", err)
	}
	if !strings.Contains(err.Error(), `restore "`) {
		t.Fatalf("error does not name the corrupted ref: %v", err)
	}
	if stats.Corrupted == 0 {
		t.Fatalf("stats %+v", stats)
	}

	// The same failure one epoch in: the step error ends the run with the
	// epoch already completed still in the report, and with the store's
	// counters — the first epoch's traffic included.
	m, ds = faultModel(300)
	inj = faults.New(faults.Config{Seed: 78})
	rep, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), OffloadOptions{
		DQT: quant.OptL(), Channel: inj, Policy: offload.PolicyFail,
		EpochEnd: func(int) { inj.ForceNextRecv(1) },
	})
	if !errors.Is(err, frame.ErrChecksum) {
		t.Fatalf("want frame.ErrChecksum in epoch 1, got %v", err)
	}
	if len(rep.Epochs) != 1 || rep.Diverged || rep.Epochs[0].CompressionRatio <= 1 {
		t.Fatalf("want exactly the completed epoch 0 in the report, got %+v", rep)
	}
	if stats.Corrupted == 0 || stats.Restored == 0 || stats.Offloaded <= stats.Restored {
		t.Fatalf("stats do not cover the completed epoch plus the failed step: %+v", stats)
	}
}

// TestOffloadedTrainingRetryPolicy: a transient forced fault under
// PolicyRetry is absorbed by a channel re-read; training completes with
// no recompute.
func TestOffloadedTrainingRetryPolicy(t *testing.T) {
	m, ds := faultModel(400)
	inj := faults.New(faults.Config{Seed: 79})
	inj.ForceNextRecv(1)
	rep, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), OffloadOptions{
		DQT: quant.OptL(), Channel: inj, Policy: offload.PolicyRetry, MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatal("diverged")
	}
	if stats.Retried == 0 || stats.Corrupted == 0 {
		t.Fatalf("retry path not exercised: %+v", stats)
	}
	if stats.Recomputed != 0 {
		t.Fatalf("retry policy must not recompute: %+v", stats)
	}
}

// TestOffloadedTrainingDropRecovery: a dropped buffer (nil transfer) is
// detected as truncation and recovered by recompute.
func TestOffloadedTrainingDropRecovery(t *testing.T) {
	m, ds := faultModel(500)
	inj := faults.New(faults.Config{Seed: 81, DropRate: 0.03})
	rep, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), OffloadOptions{
		DQT: quant.OptL(), Channel: inj, Policy: offload.PolicyRecompute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatal("diverged")
	}
	if stats.Corrupted == 0 || stats.Recomputed == 0 {
		t.Fatalf("drop faults not exercised: %+v (injector %+v)", stats, inj.Stats())
	}
	if stats.Dropped == 0 || stats.Dropped > stats.Corrupted {
		t.Fatalf("drops not counted distinctly: %+v", stats)
	}
}
