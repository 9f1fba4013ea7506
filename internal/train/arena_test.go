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
// to the step arena when its frame commits. In sync mode, right after
// EndForward, the arena holds what a plain step holds after its forward
// pass and loss, minus exactly the offloaded buffers. The async engine
// commits while the forward pass is still running, so when its buffers go
// back depends on timing: its high-water is logged beside the plain one,
// not gated.
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
	a := tensor.NewArena()
	store := offload.NewStore(quant.OptL())
	defer store.Close()
	eng := offload.NewEngine(store, offload.EngineConfig{})
	eng.BeginStep()
	forward(m, a, x, lossOf)
	if a.InUse() != plain.InUse() {
		t.Fatalf("after forward: %d B in use, the plain step %d B", a.InUse(), plain.InUse())
	}
	offloaded := 0
	seen := map[*nn.ActRef]bool{}
	for _, ref := range m.Net.SavedRefs() {
		if !seen[ref] && ref.T.Recycled() {
			offloaded += ref.T.Bytes()
		}
		seen[ref] = true
	}
	if _, _, err := eng.EndForward(m.Net.SavedRefs()); err != nil {
		t.Fatal(err)
	}
	if got, want := a.InUse(), plain.InUse()-offloaded; offloaded == 0 || got != want {
		t.Fatalf("after EndForward: %d B in use, want the plain step's %d B minus %d B offloaded", got, plain.InUse(), offloaded)
	}

	highWater := func(oc *OffloadOptions) int {
		m, x, lossOf := benchStep(seed)
		p := &pass{net: m.Net, arena: tensor.NewArena()}
		if oc != nil {
			s := offload.NewStore(quant.OptL())
			defer s.Close()
			p.eng = offload.NewEngine(s, oc.engineConfig())
			defer p.eng.Close()
		}
		if _, err := p.run(x, lossOf, 0, nil); err != nil {
			t.Fatal(err)
		}
		return p.arena.HighWater()
	}
	t.Logf("step arena high-water: plain %d B, offload sync %d B, offload async %d B",
		highWater(nil), highWater(&OffloadOptions{}), highWater(&OffloadOptions{Async: true}))
}
