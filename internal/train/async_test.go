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

// heldTail is how many frames from the end of a step an offload engine
// keeps on the device from its second step on: its restore lookahead.
const heldTail = 4

// withoutHeldTails drops from a channel sequence in which every step
// sends perStep frames the frames an engine's second and later steps keep
// on the device: the last held of every step after the first.
func withoutHeldTails(frames []string, perStep, held int) []string {
	out := append([]string(nil), frames[:perStep]...)
	for lo := perStep; lo < len(frames); lo += perStep {
		out = append(out, frames[lo:lo+perStep-held]...)
	}
	return out
}

func workerSet() []int {
	set := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 {
		set = append(set, p)
	}
	return set
}

// TestOffloadedBitExactAtEveryWorkerCount is the acceptance matrix: the
// same short offloaded training run must be bit-identical — losses,
// validation scores, final weights, and the sequence of compressed frames
// crossing the channel — at every worker count (the engine alone is held
// to the codec's round trip in internal/offload, TestEnginePrefetchBitExact).
func TestOffloadedBitExactAtEveryWorkerCount(t *testing.T) {
	cfg := faultCfg(t)
	train := func(workers int) (Report, *models.Model, []string) {
		m, ds := faultModel(600)
		atWorkers(t, workers)
		ch := &captureChannel{}
		rep, _, err := ClassifierOffloaded(m, ds, cfg, OffloadOptions{Channel: ch})
		if err != nil {
			t.Fatal(err)
		}
		return rep, m, ch.frames()
	}
	refRep, refModel, refFrames := train(1)
	for _, w := range workerSet()[1:] {
		name := fmt.Sprintf("w%d", w)
		rep, m, frames := train(w)
		sameEpochs(t, refRep, rep, name)
		sameWeights(t, refModel, m, name)
		if len(frames) != len(refFrames) {
			t.Fatalf("%s: %d frames vs %d", name, len(frames), len(refFrames))
		}
		for i := range frames {
			if frames[i] != refFrames[i] {
				t.Fatalf("%s: compressed frame sequence differs at %d", name, i)
			}
		}
	}
}

// TestAsyncRecomputeBitExact extends the recompute acceptance test across
// worker counts: corruption discovered by the prefetcher mid-backward
// must still recover into exactly the trajectory of a fault-free run, and
// the faulty runs must agree counter-for-counter at every worker count.
func TestAsyncRecomputeBitExact(t *testing.T) {
	run := func(faulty bool, workers int) (Report, offload.Stats) {
		m, ds := faultModel(200)
		cfg := faultCfg(t)
		atWorkers(t, workers)
		oc := OffloadOptions{Policy: offload.PolicyRecompute}
		if faulty {
			inj := faults.New(faults.Config{Seed: 77, BitFlipPerByte: 1e-5})
			inj.ForceNextRecv(1)
			oc.Channel = inj
		}
		rep, stats, err := ClassifierOffloaded(m, ds, cfg, oc)
		if err != nil {
			t.Fatal(err)
		}
		return rep, stats
	}

	clean, _ := run(false, 1)
	var first offload.Stats
	for i, w := range workerSet() {
		name := fmt.Sprintf("w%d", w)
		faulty, stats := run(true, w)
		if stats.Recomputed == 0 {
			t.Fatalf("%s: no recompute happened; the fault path was not exercised", name)
		}
		if stats.Corrupted == 0 {
			t.Fatalf("%s: no corruption detected", name)
		}
		if i == 0 {
			first = stats
		} else if stats != first {
			t.Fatalf("%s: fault counters not deterministic: %+v vs %+v", name, stats, first)
		}
		sameEpochs(t, faulty, clean, name+" faulty vs fault-free")
	}
}

// TestAsyncFailPolicy: a prefetched restore failure under PolicyFail aborts
// the step cleanly with the typed error, not a panic escaping the
// backward pass.
func TestAsyncFailPolicy(t *testing.T) {
	m, ds := faultModel(300)
	inj := faults.New(faults.Config{Seed: 78})
	inj.ForceNextRecv(1)
	_, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), OffloadOptions{
		DQT: quant.OptL(), Channel: inj, Policy: offload.PolicyFail,
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
		DQT: quant.OptL(), Channel: inj, Policy: offload.PolicyRecompute,
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
// step, one of them a BRC frame, which never crosses the channel), an
// engine's first step sends and fetches the other 12 frames — 24
// transfers — and from its second step on the 4 frames forward submits
// last, the BRC frame among them, stay on the device — 18; an engine
// built afresh for every step has every step be its first. The batch
// input is submitted first, so it is the first frame on the channel and
// never held. Both runs submit the same frame sequence, so the frames
// held on the device are the fresh engines' last 3 sent of each step;
// every step restores all it offloaded; and the weights
// after the steps are the ones the in-place round trip through the same
// codec reached (heldTailRoundTrip, recorded before that round trip ran
// through the engine).
func TestHeldTailSkipsChannel(t *testing.T) {
	const heldTailRoundTrip = "86f061fd94821fed07a6a220fe308bce9fe508c01359b938a40cbf05adf5437d"
	atWorkers(t, 2)
	const seed, steps = 2200, 3
	run := func(fresh bool) (digest string, sent []string) {
		m := models.ResNet18(models.Scale{Width: 16, Blocks: 1, H: 32, W: 32}, 4, tensor.NewRNG(seed))
		ds := data.NewClassification(data.ClassificationConfig{Classes: 4, Channels: 3, H: 32, W: 32, Noise: 0.4, Seed: seed})
		cfg := Config{BatchSize: 8, LR: 0.05, Momentum: 0.9}.withDefaults()
		p := &pass{net: m.Net, arena: tensor.NewArena()}
		ch := &captureChannel{}
		store := offload.NewStore(quant.OptL())
		store.Channel = ch
		defer store.Close()
		p.eng = offload.NewEngine(store, offload.EngineConfig{})
		defer func() { p.eng.Close() }()
		var x *tensor.Tensor
		batch := func() (*tensor.Tensor, lossFunc) {
			var labels []int
			x, labels = ds.Batch(cfg.BatchSize)
			return x, crossEntropy(labels)
		}
		step := localStep(p, cfg.newOptimizer(), batch)
		for s := 0; s < steps; s++ {
			if fresh && s > 0 {
				p.eng.Close()
				p.eng = offload.NewEngine(store, offload.EngineConfig{})
			}
			before, first := ch.transfers(), len(ch.frames())
			if _, err := step(0, s); err != nil {
				t.Fatalf("fresh %v step %d: %v", fresh, s, err)
			}
			want := 18
			if s == 0 || fresh {
				want = 24
			}
			if got := ch.transfers() - before; got != want {
				t.Errorf("fresh %v step %d: %d transfers, want %d", fresh, s, got, want)
			}
			if st := store.Stats(); st.Offloaded != st.Restored || store.Stored() != 0 {
				t.Errorf("fresh %v step %d: offloaded %d, restored %d, %d left", fresh, s, st.Offloaded, st.Restored, store.Stored())
			}
			enc, err := codec.New(quant.OptL()).Encode(compress.KindConv, x)
			if err != nil {
				t.Fatal(err)
			}
			if ch.frames()[first] != string(frame.EncodeFrame(enc.Frame)) {
				t.Errorf("fresh %v step %d: the first frame on the channel is not the batch input", fresh, s)
			}
		}
		return weightsDigest(m.Net), ch.frames()
	}
	fresh, allSent := run(true)
	held, heldSent := run(false)
	if fresh != heldTailRoundTrip || held != heldTailRoundTrip {
		t.Fatalf("weights: fresh engines %s, one engine %s, the round trip's %s", fresh, held, heldTailRoundTrip)
	}
	if len(allSent) != 3*12 || len(heldSent) != 12+2*9 {
		t.Fatalf("sent %d frames through fresh engines, %d through one, want %d and %d", len(allSent), len(heldSent), 3*12, 12+2*9)
	}
	for i, f := range withoutHeldTails(allSent, 12, heldTail-1) {
		if f != heldSent[i] {
			t.Fatalf("frame %d on the channel differs between the runs: they hold different refs", i)
		}
	}
}
