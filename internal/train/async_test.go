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

// offloadedAt is ClassifierOffloaded with the engine's restore lookahead
// set to prefetch: 0 restores strictly on demand and holds nothing,
// lookahead is the product's schedule. The store gets oc's channel,
// policy and retries.
func offloadedAt(m *models.Model, ds *data.Classification, cfg Config, oc OffloadOptions, prefetch int) (Report, offload.Stats, error) {
	cfg = cfg.withDefaults()
	rep := Report{ModelName: m.Name}
	opt := cfg.newOptimizer()
	store := offload.NewStore(quant.OptL())
	store.Channel = oc.Channel
	store.Recovery = offload.Recovery{Policy: oc.Policy, MaxRetries: oc.MaxRetries}
	defer store.Close()
	eng := offload.NewEngine(store, offload.EngineConfig{Prefetch: prefetch})
	defer eng.Close()
	p := &pass{net: m.Net, eng: eng, arena: tensor.NewArena()}
	l := loop{cfg: cfg, step: localStep(p, opt, classifierBatch(ds, cfg)), validate: classifierValidation(m.Net, p.arena, ds, cfg)}
	err := l.run(&rep)
	rep.WeightsDigest = weightsDigest(m.Net)
	return rep, store.Stats(), err
}

// withoutHeldTails drops from an on-demand run's channel sequence (perStep
// frames a step) the frames a lookahead engine keeps on the device: the
// last lookahead of every step after the first.
func withoutHeldTails(frames []string, perStep int) []string {
	out := append([]string(nil), frames[:perStep]...)
	for lo := perStep; lo < len(frames); lo += perStep {
		out = append(out, frames[lo:lo+perStep-lookahead]...)
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

// TestAsyncSyncEquivalence is the acceptance matrix: the same short
// training run must be bit-identical — losses, validation scores, final
// weights, and the sequence of compressed frames crossing the channel —
// at restore lookahead 0 and 4 at every worker count, against the
// trainer's own run (the engine's on-demand configuration is held to the
// same tensors and frames in internal/offload, TestEnginePrefetchBitExact).
// Both lookaheads submit the same frames in the same order; the channel
// sequences differ only by the held tail, which lookahead 0 sends too.
func TestAsyncSyncEquivalence(t *testing.T) {
	cfg := faultCfg(t)
	refModel, ds := faultModel(600)
	ch := &captureChannel{}
	refRep, _, err := ClassifierOffloaded(refModel, ds, cfg, OffloadOptions{Channel: ch})
	if err != nil {
		t.Fatal(err)
	}
	refFrames := ch.frames()
	train := func(prefetch, workers int) (Report, *models.Model, []string) {
		m, ds := faultModel(600)
		atWorkers(t, workers)
		ch := &captureChannel{}
		rep, _, err := offloadedAt(m, ds, cfg, OffloadOptions{Channel: ch}, prefetch)
		if err != nil {
			t.Fatal(err)
		}
		return rep, m, ch.frames()
	}

	steps := cfg.Epochs * cfg.BatchesPerEpoch
	perStep := (len(refFrames) + (steps-1)*lookahead) / steps
	for _, w := range workerSet() {
		for _, prefetch := range []int{0, lookahead} {
			name := fmt.Sprintf("prefetch%d-w%d", prefetch, w)
			rep, m, frames := train(prefetch, w)
			sameEpochs(t, refRep, rep, name)
			sameWeights(t, refModel, m, name)
			if prefetch == 0 {
				if len(frames) != steps*perStep {
					t.Fatalf("%s: %d frames, want %d steps of %d", name, len(frames), steps, perStep)
				}
				frames = withoutHeldTails(frames, perStep)
			}
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
}

// TestAsyncRecomputeBitExact extends the recompute acceptance test to
// both restore schedules: corruption discovered by the prefetcher
// mid-backward (lookahead 4) or by an on-demand restore (lookahead 0)
// must still recover into exactly the trajectory of a fault-free run, and
// the faulty runs of one lookahead must agree counter-for-counter at
// every worker count.
func TestAsyncRecomputeBitExact(t *testing.T) {
	run := func(faulty bool, prefetch, workers int) (Report, offload.Stats) {
		m, ds := faultModel(200)
		cfg := faultCfg(t)
		atWorkers(t, workers)
		oc := OffloadOptions{Policy: offload.PolicyRecompute}
		if faulty {
			inj := faults.New(faults.Config{Seed: 77, BitFlipPerByte: 1e-5})
			inj.ForceNextRecv(1)
			oc.Channel = inj
		}
		rep, stats, err := offloadedAt(m, ds, cfg, oc, prefetch)
		if err != nil {
			t.Fatal(err)
		}
		return rep, stats
	}

	clean, _ := run(false, 0, 1)
	for _, prefetch := range []int{0, lookahead} {
		var first offload.Stats
		for i, w := range workerSet() {
			name := fmt.Sprintf("prefetch%d-w%d", prefetch, w)
			faulty, stats := run(true, prefetch, w)
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
// step), an engine's first step sends and fetches every frame — 26
// transfers — and from its second step on, at lookahead 4, the 4 frames
// forward submits last stay on the device — 18; at lookahead 0 every step
// is the first. The batch input is submitted first, so it is the first
// frame on the channel and never held. Both lookaheads submit the same
// frame sequence, so the held frames are lookahead 0's last 4 of each
// step; every step restores all it offloaded; and the weights after the
// steps are the ones the in-place round trip through the same codec
// reached (heldTailRoundTrip, recorded before that round trip ran through
// the engine).
func TestHeldTailSkipsChannel(t *testing.T) {
	const heldTailRoundTrip = "86f061fd94821fed07a6a220fe308bce9fe508c01359b938a40cbf05adf5437d"
	atWorkers(t, 2)
	const seed, steps = 2200, 3
	run := func(prefetch int) (digest string, sent []string) {
		m := models.ResNet18(models.Scale{Width: 16, Blocks: 1, H: 32, W: 32}, 4, tensor.NewRNG(seed))
		ds := data.NewClassification(data.ClassificationConfig{Classes: 4, Channels: 3, H: 32, W: 32, Noise: 0.4, Seed: seed})
		cfg := Config{BatchSize: 8, LR: 0.05, Momentum: 0.9}.withDefaults()
		p := &pass{net: m.Net, arena: tensor.NewArena()}
		ch := &captureChannel{}
		store := offload.NewStore(quant.OptL())
		store.Channel = ch
		defer store.Close()
		p.eng = offload.NewEngine(store, offload.EngineConfig{Prefetch: prefetch})
		defer p.eng.Close()
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
				t.Fatalf("lookahead %d step %d: %v", prefetch, s, err)
			}
			want := 18
			if s == 0 || prefetch == 0 {
				want = 26
			}
			if got := ch.transfers() - before; got != want {
				t.Errorf("lookahead %d step %d: %d transfers, want %d", prefetch, s, got, want)
			}
			if st := store.Stats(); st.Offloaded != st.Restored || store.Stored() != 0 {
				t.Errorf("lookahead %d step %d: offloaded %d, restored %d, %d left", prefetch, s, st.Offloaded, st.Restored, store.Stored())
			}
			enc, err := codec.New(quant.OptL()).Encode(compress.KindConv, x)
			if err != nil {
				t.Fatal(err)
			}
			if ch.frames()[first] != string(frame.EncodeFrame(enc.Frame)) {
				t.Errorf("lookahead %d step %d: the first frame on the channel is not the batch input", prefetch, s)
			}
		}
		return weightsDigest(m.Net), ch.frames()
	}
	onDemand, allSent := run(0)
	held, heldSent := run(lookahead)
	if onDemand != heldTailRoundTrip || held != heldTailRoundTrip {
		t.Fatalf("weights: lookahead 0 %s, lookahead 4 %s, the round trip's %s", onDemand, held, heldTailRoundTrip)
	}
	if len(allSent) != 3*13 || len(heldSent) != 13+2*9 {
		t.Fatalf("sent %d frames at lookahead 0, %d at lookahead 4, want %d and %d", len(allSent), len(heldSent), 3*13, 13+2*9)
	}
	for i, f := range withoutHeldTails(allSent, 13) {
		if f != heldSent[i] {
			t.Fatalf("frame %d on the channel differs between the lookaheads: they hold different refs", i)
		}
	}
}
