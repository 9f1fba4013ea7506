package experiments

import (
	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/tensor"
	"jpegact/internal/train"
)

// Harvested is one saved activation captured from a live training run —
// the "example activations from a generator network" of §IV.
type Harvested struct {
	Name  string
	Depth int // position in forward order
	Kind  compress.Kind
	T     *tensor.Tensor
}

// harvest trains a mini ResNet (the paper's generator is ResNet50 trained
// for 5 epochs) with no compression, then captures every unique saved
// activation from one final forward pass.
func harvest(o Options, epochs int) []Harvested {
	sc := models.Scale{Width: 8, Blocks: 1}
	batches, batch := 8, 8
	if o.Quick {
		epochs = min(epochs, 2)
		batches = 4
	}
	ds := data.NewClassification(data.ClassificationConfig{
		Classes: 4, Channels: 3, H: 16, W: 16, Noise: 0.4, Seed: o.seed(),
	})
	m := models.ResNet50(sc, 4, tensor.NewRNG(o.seed()))
	train.Classifier(m, ds, train.Config{
		Method: compress.Baseline{}, Epochs: epochs,
		BatchesPerEpoch: batches, BatchSize: batch, LR: 0.05,
	})
	x, _ := ds.Batch(batch)
	m.Net.Forward(refOf(x), true)
	seen := map[*nn.ActRef]bool{}
	var out []Harvested
	for _, ref := range m.Net.SavedRefs() {
		if seen[ref] || ref.T == nil {
			continue
		}
		seen[ref] = true
		out = append(out, Harvested{
			Name: ref.Name, Depth: len(out), Kind: ref.Kind, T: ref.T.Clone(),
		})
	}
	return out
}

// denseActs filters harvested activations to the dense conv/sum kind that
// the JPEG pipeline targets, keeping only JPEG-applicable shapes.
func denseActs(hs []Harvested) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, h := range hs {
		sh := h.T.Shape
		if h.Kind == compress.KindConv && sh.N*sh.C*sh.H >= 8 && sh.W >= 8 {
			out = append(out, h.T)
		}
	}
	return out
}

// refOf wraps a tensor as a network input ref.
func refOf(x *tensor.Tensor) *nn.ActRef {
	return &nn.ActRef{Name: "input", Kind: compress.KindConv, T: x}
}
