package train

import (
	"math"
	"testing"

	"jpegact/internal/offload"
	"jpegact/internal/quant"
)

// freqRun trains the fault_test model with the frequency-domain restore
// path toggled; worker count and async mode are the axes the
// determinism tests sweep.
func freqRun(t *testing.T, freq, async bool, workers int) (Report, offload.Stats) {
	t.Helper()
	m, ds := faultModel(700)
	cfg := faultCfg(t)
	atWorkers(t, workers)
	rep, stats, err := ClassifierOffloaded(m, ds, cfg, OffloadOptions{
		DQT: quant.OptL(), FreqDomain: freq, Async: async,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatal("diverged")
	}
	return rep, stats
}

// TestOffloadedFreqDomain pins the opt-in end to end: with FreqDomain
// set, part of the restores are served as coefficient planes (and part
// spatially — the fallback must keep covering non-capable layers), and
// the training trajectory stays within the documented 5% tolerance of
// the spatial-path run.
func TestOffloadedFreqDomain(t *testing.T) {
	spat, sstats := freqRun(t, false, false, 2)
	freq, fstats := freqRun(t, true, false, 2)

	if sstats.CoefRestores != 0 {
		t.Fatalf("spatial run served %d coefficient restores", sstats.CoefRestores)
	}
	if fstats.CoefRestores == 0 {
		t.Fatal("freq run served no coefficient restores; the plan is empty")
	}
	if fstats.CoefRestores >= fstats.Restored {
		t.Fatalf("every restore took the coefficient path (%d of %d); the spatial fallback is not exercised",
			fstats.CoefRestores, fstats.Restored)
	}
	if len(freq.Epochs) != len(spat.Epochs) {
		t.Fatalf("%d vs %d epochs", len(freq.Epochs), len(spat.Epochs))
	}
	for i := range freq.Epochs {
		fl, sl := freq.Epochs[i].Loss, spat.Epochs[i].Loss
		if math.Abs(fl-sl) > 5e-2*(1+math.Abs(sl)) {
			t.Fatalf("epoch %d loss: freq %v, spatial %v", i, fl, sl)
		}
	}
}

// TestOffloadedFreqDomainDeterministic pins run-to-run and worker-count
// bit-exactness of the freq path itself: identical losses/scores and
// identical fault counters across a re-run, across worker counts 1, 2
// and GOMAXPROCS, and between sync and async engines.
func TestOffloadedFreqDomainDeterministic(t *testing.T) {
	ref, refStats := freqRun(t, true, false, workerSet()[0])

	again, againStats := freqRun(t, true, false, workerSet()[0])
	sameEpochs(t, ref, again, "freq re-run")
	if refStats != againStats {
		t.Fatalf("stats differ across re-runs: %+v vs %+v", refStats, againStats)
	}

	for _, w := range workerSet()[1:] {
		rep, stats := freqRun(t, true, false, w)
		sameEpochs(t, ref, rep, "freq workers")
		if stats.CoefRestores != refStats.CoefRestores {
			t.Fatalf("workers=%d: CoefRestores %d vs %d", w, stats.CoefRestores, refStats.CoefRestores)
		}
	}

	asyncRep, asyncStats := freqRun(t, true, true, workerSet()[0])
	sameEpochs(t, ref, asyncRep, "freq async vs sync")
	if asyncStats.CoefRestores != refStats.CoefRestores {
		t.Fatalf("async CoefRestores %d vs sync %d", asyncStats.CoefRestores, refStats.CoefRestores)
	}
}
