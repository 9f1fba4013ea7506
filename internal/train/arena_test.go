package train

import (
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
	"jpegact/internal/offload/codec"
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
// channel or is held on the device, and its restore takes a buffer of the
// same size back out. EndForward is a barrier on every commit, so right
// after it the arena holds what a plain step holds after its forward pass
// and loss, minus exactly the offloaded buffers; right after EndStep it
// holds what the plain step holds after backward, minus exactly the BRC
// refs' buffers, which keep only their mask. Both hold on the engine's
// first step, which sends every frame, and on its second, which holds the
// last 4. Inside a trained step the save hooks commit while the forward
// pass is still running, so when the buffers go back depends on timing:
// that high-water is logged beside the plain one, not gated.
func TestCommitHandsBuffersBack(t *testing.T) {
	atWorkers(t, 2)
	const seed = 2100
	forward := func(m *models.Model, a *tensor.Arena, x *tensor.Tensor, lossOf lossFunc) *tensor.Tensor {
		_, grad := lossOf(m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: a.Wrap(x)}, true).T)
		return grad
	}

	m, x, lossOf := benchStep(seed)
	plain := tensor.NewArena()
	grad := forward(m, plain, x, lossOf)
	plainForward := plain.InUse()
	m.Net.Backward(grad)
	plainBackward := plain.InUse()

	m, x, lossOf = benchStep(seed)
	store := offload.NewStore(quant.OptL())
	defer store.Close()
	ch := &captureChannel{}
	store.Channel = ch
	eng := offload.NewEngine(store, offload.EngineConfig{})
	defer eng.Close()
	for step, wantSent := range []int{13, 9} {
		a := tensor.NewArena()
		eng.BeginStep()
		grad := forward(m, a, x, lossOf)
		if a.InUse() != plainForward {
			t.Fatalf("step %d after forward: %d B in use, the plain step %d B", step, a.InUse(), plainForward)
		}
		offloaded, brc := 0, 0
		seen := map[*nn.ActRef]bool{}
		for _, ref := range m.Net.SavedRefs() {
			if !seen[ref] && ref.T.Recycled() {
				offloaded += ref.T.Bytes()
				if codec.Select(ref.Kind, ref.T.Shape) == frame.CodecBRC {
					brc += ref.T.Bytes()
				}
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
		if got, want := a.InUse(), plainForward-offloaded; offloaded == 0 || got != want {
			t.Fatalf("step %d after EndForward: %d B in use, want the plain step's %d B minus %d B offloaded", step, got, plainForward, offloaded)
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
		if got, want := a.InUse(), plainBackward-brc; brc == 0 || got != want {
			t.Fatalf("step %d after EndStep: %d B in use, want the plain step's %d B after backward minus %d B of BRC refs", step, got, plainBackward, brc)
		}
	}

	// Two steps each: the second holds its tail.
	highWater := func(offloaded bool) int {
		m, x, lossOf := benchStep(seed)
		p := &pass{net: m.Net, arena: tensor.NewArena()}
		if offloaded {
			s := offload.NewStore(quant.OptL())
			defer s.Close()
			p.eng = offload.NewEngine(s, offload.EngineConfig{})
			defer p.eng.Close()
		}
		for range 2 {
			if _, err := p.run(x, lossOf, nil); err != nil {
				t.Fatal(err)
			}
		}
		return p.arena.HighWater()
	}
	t.Logf("step arena high-water over two steps: plain %d B, offload %d B", highWater(false), highWater(true))
}
