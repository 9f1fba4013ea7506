package train

import (
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// benchStep builds the train_plain step of bash bench/run.sh: ResNet18 at
// width 16 on 32×32 images, one batch of 8.
func benchStep(seed uint64) (*models.Model, *tensor.Tensor, lossFunc) {
	m := models.ResNet18(models.Scale{Width: 16, Blocks: 1, H: 32, W: 32}, 4, tensor.NewRNG(seed))
	ds := data.NewClassification(data.ClassificationConfig{Classes: 4, Channels: 3, H: 32, W: 32, Noise: 0.4, Seed: seed})
	x, labels := ds.Batch(8)
	return m, x, crossEntropy(labels)
}

// TestCommitHandsBuffersBack: an offloaded activation's buffer goes back
// to the step arena when its frame commits, whether the frame crosses the
// channel or is held on the device. In sync mode, right after EndForward,
// the arena holds what a plain step holds after its forward pass and
// loss, minus exactly the offloaded buffers: on the engine's first step,
// which sends every frame, and on its second, which holds the last 4. The
// async engine commits while the forward pass is still running, so when
// its buffers go back depends on timing: its high-water is logged beside
// the plain and sync ones, not gated.
func TestCommitHandsBuffersBack(t *testing.T) {
	atWorkers(t, 2)
	const seed = 2100
	forward := func(m *models.Model, a *tensor.Arena, x *tensor.Tensor, lossOf lossFunc) {
		lossOf(m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: a.Wrap(x)}, true).T)
	}

	m, x, lossOf := benchStep(seed)
	plain := tensor.NewArena()
	forward(m, plain, x, lossOf)

	m, x, lossOf = benchStep(seed)
	store := offload.NewStore(quant.OptL())
	defer store.Close()
	ch := &captureChannel{}
	store.Channel = ch
	eng := offload.NewEngine(store, OffloadOptions{}.engineConfig())
	for step, wantSent := range []int{13, 9} {
		a := tensor.NewArena()
		eng.BeginStep()
		forward(m, a, x, lossOf)
		if a.InUse() != plain.InUse() {
			t.Fatalf("step %d after forward: %d B in use, the plain step %d B", step, a.InUse(), plain.InUse())
		}
		offloaded := 0
		seen := map[*nn.ActRef]bool{}
		for _, ref := range m.Net.SavedRefs() {
			if !seen[ref] && ref.T.Recycled() {
				offloaded += ref.T.Bytes()
			}
			seen[ref] = true
		}
		sent := len(ch.frames())
		if _, _, err := eng.EndForward(m.Net.SavedRefs()); err != nil {
			t.Fatal(err)
		}
		if got := len(ch.frames()) - sent; got != wantSent {
			t.Fatalf("step %d: %d of 13 frames sent, want %d", step, got, wantSent)
		}
		if got, want := a.InUse(), plain.InUse()-offloaded; offloaded == 0 || got != want {
			t.Fatalf("step %d after EndForward: %d B in use, want the plain step's %d B minus %d B offloaded", step, got, plain.InUse(), offloaded)
		}
		if err := eng.PrepareBackward(); err != nil {
			t.Fatal(err)
		}
	}

	// Two steps each: the second holds its tail.
	highWater := func(oc *OffloadOptions) int {
		m, x, lossOf := benchStep(seed)
		p := &pass{net: m.Net, arena: tensor.NewArena()}
		if oc != nil {
			s := offload.NewStore(quant.OptL())
			defer s.Close()
			p.eng = offload.NewEngine(s, oc.engineConfig())
			defer p.eng.Close()
		}
		for range 2 {
			if _, err := p.run(x, lossOf, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		return p.arena.HighWater()
	}
	t.Logf("step arena high-water over two steps: plain %d B, offload sync %d B, offload async %d B",
		highWater(nil), highWater(&OffloadOptions{}), highWater(&OffloadOptions{Async: true}))
}
