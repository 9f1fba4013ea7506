package train

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/faults"
	"jpegact/internal/frame"
	"jpegact/internal/models"
	"jpegact/internal/offload"
	"jpegact/internal/offload/codec"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// captureChannel records a copy of every Send payload in order and
// counts the Recvs, passthrough otherwise. Commits are serialized by the
// engine, but the mutex makes the recorder safe regardless.
type captureChannel struct {
	mu    sync.Mutex
	sent  []string
	recvs int
}

func (c *captureChannel) Send(b []byte) []byte {
	c.mu.Lock()
	c.sent = append(c.sent, string(b))
	c.mu.Unlock()
	return b
}

func (c *captureChannel) Recv(b []byte) []byte {
	c.mu.Lock()
	c.recvs++
	c.mu.Unlock()
	return b
}

// frames returns the payloads sent so far, in order.
func (c *captureChannel) frames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.sent...)
}

// transfers returns how many Sends and Recvs crossed the channel so far.
func (c *captureChannel) transfers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sent) + c.recvs
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
// weights, and the sequence of compressed frames crossing the channel —
// across sync and async modes at every worker count (the engine's
// on-demand configuration is held to the same tensors and frames in
// internal/offload, TestEnginePrefetchBitExact). The trainer drives both
// engines with the same save hooks, so they submit, send and hold the
// same frames in the same order.
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
		return rep, m, ch.frames()
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
				t.Fatalf("%s: compressed frame sequence differs at %d", v.name, i)
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

// TestHeldTailSkipsChannel: on the bench-scale ResNet18 (13 saved refs a
// step), an engine's first step sends and fetches every frame — 26
// transfers — and from its second step on the 4 frames forward submits
// last stay on the device — 18. The batch input is submitted first, so it
// is the first frame on the channel and never held. Sync and async send
// the same frame sequence, so they hold the same 4 refs; every step
// restores all it offloaded; and the weights after the steps are the
// functional round trip's through the same codec.
func TestHeldTailSkipsChannel(t *testing.T) {
	atWorkers(t, 2)
	const seed, steps = 2200, 3
	run := func(act string) (digest string, sent []string) {
		m := models.ResNet18(models.Scale{Width: 16, Blocks: 1, H: 32, W: 32}, 4, tensor.NewRNG(seed))
		ds := data.NewClassification(data.ClassificationConfig{Classes: 4, Channels: 3, H: 32, W: 32, Noise: 0.4, Seed: seed})
		cfg := Config{BatchSize: 8, LR: 0.05, Momentum: 0.9}.withDefaults()
		p := &pass{net: m.Net, arena: tensor.NewArena()}
		ch := &captureChannel{}
		var store *offload.Store
		if act == "round-trip" {
			p.method = compress.NewJPEGAct(quant.Fixed(quant.OptL()))
		} else {
			store = offload.NewStore(quant.OptL())
			store.Channel = ch
			defer store.Close()
			p.eng = offload.NewEngine(store, OffloadOptions{Async: act == "async"}.engineConfig())
			defer p.eng.Close()
		}
		var x *tensor.Tensor
		batch := func() (*tensor.Tensor, lossFunc) {
			var labels []int
			x, labels = ds.Batch(cfg.BatchSize)
			return x, crossEntropy(labels)
		}
		step := localStep(p, cfg.newOptimizer(), batch)
		for s := 0; s < steps; s++ {
			before, first := ch.transfers(), len(ch.frames())
			if _, err := step(0, s); err != nil {
				t.Fatalf("%s step %d: %v", act, s, err)
			}
			if store == nil {
				continue
			}
			want := 18
			if s == 0 {
				want = 26
			}
			if got := ch.transfers() - before; got != want {
				t.Errorf("%s step %d: %d transfers, want %d", act, s, got, want)
			}
			if st := store.Stats(); st.Offloaded != st.Restored || store.Stored() != 0 {
				t.Errorf("%s step %d: offloaded %d, restored %d, %d left", act, s, st.Offloaded, st.Restored, store.Stored())
			}
			enc, err := codec.Pipeline{DQT: quant.OptL(), S: sfpr.DefaultS}.Encode(compress.KindConv, x)
			if err != nil {
				t.Fatal(err)
			}
			if ch.frames()[first] != string(frame.EncodeFrame(enc.Frame)) {
				t.Errorf("%s step %d: the first frame on the channel is not the batch input", act, s)
			}
		}
		return weightsDigest(m.Net), ch.frames()
	}
	ref, _ := run("round-trip")
	syncDigest, syncSent := run("sync")
	asyncDigest, asyncSent := run("async")
	if syncDigest != ref || asyncDigest != ref {
		t.Fatalf("weights: sync %s, async %s, the round trip's %s", syncDigest, asyncDigest, ref)
	}
	if want := 13 + 2*9; len(syncSent) != want || len(asyncSent) != want {
		t.Fatalf("sent %d frames sync, %d async, want %d", len(syncSent), len(asyncSent), want)
	}
	for i := range syncSent {
		if syncSent[i] != asyncSent[i] {
			t.Fatalf("frame %d on the channel differs between sync and async: they hold different refs", i)
		}
	}
}
