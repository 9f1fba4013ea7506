package train

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"jpegact/internal/faults"
	"jpegact/internal/models"
	"jpegact/internal/offload"
	"jpegact/internal/quant"
)

// captureChannel records a copy of every Send payload, passthrough
// otherwise. Commits are serialized by the engine, but the mutex makes
// the recorder safe regardless.
type captureChannel struct {
	mu   sync.Mutex
	sent []string
}

func (c *captureChannel) Send(b []byte) []byte {
	c.mu.Lock()
	c.sent = append(c.sent, string(b))
	c.mu.Unlock()
	return b
}
func (c *captureChannel) Recv(b []byte) []byte { return b }

func (c *captureChannel) sorted() []string {
	c.mu.Lock()
	out := append([]string(nil), c.sent...)
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

func workerSet() []int {
	set := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 {
		set = append(set, p)
	}
	return set
}

// TestAsyncSyncEquivalence is the acceptance matrix: the same short
// training run must be bit-identical — losses, validation scores, final
// weights, and the multiset of compressed frames crossing the channel —
// across sync and async modes at every worker count (the engine's
// on-demand and byte-budget configurations are held to the same tensors
// and frames in internal/offload, TestEnginePrefetchBitExact). The
// async emission order may differ from the sync sweep (the hooks stream
// refs as they become safe), so frames are compared as a sorted
// multiset.
func TestAsyncSyncEquivalence(t *testing.T) {
	run := func(oc OffloadOptions, workers int) (Report, *models.Model, []string) {
		m, ds := faultModel(600)
		cfg := faultCfg(t)
		atWorkers(t, workers)
		ch := &captureChannel{}
		oc.Channel = ch
		rep, _, err := ClassifierOffloaded(m, ds, cfg, oc)
		if err != nil {
			t.Fatal(err)
		}
		return rep, m, ch.sorted()
	}

	refRep, refModel, refFrames := run(OffloadOptions{DQT: quant.OptL()}, 2)

	type variant struct {
		name    string
		oc      OffloadOptions
		workers int
	}
	var variants []variant
	for _, w := range workerSet() {
		variants = append(variants, variant{fmt.Sprintf("async-prefetch-w%d", w), OffloadOptions{Async: true, DQT: quant.OptL()}, w})
	}
	// The zero options are the reference's: an unset DQT is OptL, not a
	// table of ones.
	variants = append(variants, variant{"sync-w1", OffloadOptions{}, 1})

	for _, v := range variants {
		rep, m, frames := run(v.oc, v.workers)
		sameEpochs(t, refRep, rep, v.name)
		if len(frames) != len(refFrames) {
			t.Fatalf("%s: %d frames vs %d", v.name, len(frames), len(refFrames))
		}
		for i := range frames {
			if frames[i] != refFrames[i] {
				t.Fatalf("%s: compressed frame multiset differs at %d", v.name, i)
			}
		}
		pa, pb := refModel.Net.Params(), m.Net.Params()
		if len(pa) != len(pb) {
			t.Fatalf("%s: param count %d vs %d", v.name, len(pa), len(pb))
		}
		for i := range pa {
			for j := range pa[i].W.Data {
				if pa[i].W.Data[j] != pb[i].W.Data[j] {
					t.Fatalf("%s: weight %q[%d] diverged", v.name, pa[i].Name, j)
				}
			}
		}
	}
}

// TestAsyncRecomputeBitExact extends the recompute acceptance test to
// the pipelined path: corruption discovered asynchronously (by the
// prefetcher, mid-backward) must still recover into exactly the
// trajectory of a fault-free synchronous run, and two faulty async runs
// must agree with each other counter-for-counter.
func TestAsyncRecomputeBitExact(t *testing.T) {
	run := func(faulty bool, async bool) (Report, offload.Stats) {
		m, ds := faultModel(200)
		oc := OffloadOptions{DQT: quant.OptL(), Policy: offload.PolicyRecompute, Async: async}
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

	cleanSync, _ := run(false, false)
	faultyA, statsA := run(true, true)
	faultyB, statsB := run(true, true)

	if statsA.Recomputed == 0 {
		t.Fatal("no recompute happened; the async fault path was not exercised")
	}
	if statsA.Corrupted == 0 {
		t.Fatal("no corruption detected")
	}
	if statsA != statsB {
		t.Fatalf("async fault runs not deterministic: %+v vs %+v", statsA, statsB)
	}
	sameEpochs(t, faultyA, faultyB, "faulty async re-run")
	sameEpochs(t, faultyA, cleanSync, "faulty async vs fault-free sync")
}

// TestAsyncFailPolicy: an async restore failure under PolicyFail aborts
// the step cleanly with the typed error, not a panic escaping the
// backward pass.
func TestAsyncFailPolicy(t *testing.T) {
	m, ds := faultModel(300)
	inj := faults.New(faults.Config{Seed: 78})
	inj.ForceNextRecv(1)
	_, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), OffloadOptions{
		DQT: quant.OptL(), Channel: inj, Policy: offload.PolicyFail, Async: true,
	})
	if err == nil {
		t.Fatal("forced corruption under PolicyFail must error")
	}
	if stats.Corrupted == 0 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestAsyncDropRecovery: lost transfers discovered by the prefetcher
// recover through recompute, with drops counted distinctly.
func TestAsyncDropRecovery(t *testing.T) {
	m, ds := faultModel(500)
	inj := faults.New(faults.Config{Seed: 81, DropRate: 0.03})
	rep, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), OffloadOptions{
		DQT: quant.OptL(), Channel: inj, Policy: offload.PolicyRecompute, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatal("diverged")
	}
	if stats.Dropped == 0 || stats.Recomputed == 0 {
		t.Fatalf("drop faults not exercised: %+v (injector %+v)", stats, inj.Stats())
	}
}
