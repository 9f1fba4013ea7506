// host_offload demonstrates the real offload path: after the forward
// pass every saved activation is serialized into compressed host-memory
// buffers and its float tensor is freed; a reverse-order prefetcher reads
// them back, and activations are restored one at a time, in reverse
// order, as the backward pass needs them — so the live float footprint
// between forward and backward is just the compressed bytes, exactly the
// paper's system-level saving.
//
// It then runs the same step through the same engine with the network's
// hooks: save hooks stream each activation to the encode workers the
// moment the forward pass no longer needs it, frames are committed to the
// channel in submission order, and the backward pass consumes the
// restores the prefetcher staged ahead of it — the offload–compute
// overlap of Fig. 1a, with bit-identical results.
package main

import (
	"fmt"

	"jpegact"
	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func main() {
	m := models.ResNet50(models.Scale{Width: 8, Blocks: 2}, 4, tensor.NewRNG(1))
	ds := data.NewClassification(data.ClassificationConfig{
		Classes: 4, Channels: 3, H: 32, W: 32, Seed: 2,
	})
	x, labels := ds.Batch(8)

	out := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	loss, grad := nn.SoftmaxCrossEntropy(out.T, labels)
	fmt.Printf("forward done, loss %.3f\n", loss)

	// Without hooks the engine offloads after the forward pass: EndForward
	// offloads every saved activation and waits until each frame has
	// landed.
	store := offload.NewStore(quant.OptL())
	after := offload.NewEngine(store, offload.EngineConfig{})
	defer after.Close()
	after.BeginStep()
	sizes, _, err := after.EndForward(m.Net.SavedRefs())
	if err != nil {
		panic(err)
	}
	fmt.Printf("offloaded %d activations: %.2f MB float -> %.2f MB compressed host bytes (%.1fx)\n",
		store.Stored(), float64(sizes.Orig)/1e6, float64(sizes.Comp)/1e6, float64(sizes.Orig)/float64(sizes.Comp))
	fmt.Println("between forward and backward, only the compressed bytes are live")

	// Restore in reverse order — the backward prefetch of Fig. 1a.
	if err := after.PrepareBackward(); err != nil {
		panic(err)
	}
	refs := m.Net.SavedRefs()
	seen := map[*nn.ActRef]bool{}
	restored := 0
	for i := len(refs) - 1; i >= 0; i-- {
		ref := refs[i]
		if seen[ref] || ref.Mask != nil {
			continue
		}
		seen[ref] = true
		if err := after.Restore(ref); err != nil {
			panic(err)
		}
		restored++
	}
	if err := after.EndStep(); err != nil { // finish the BRC refs' entries
		panic(err)
	}
	fmt.Printf("restored %d activations for the backward pass\n", restored)

	m.Net.Backward(grad)
	fmt.Println("backward complete on the restored (lossy) activations")

	// --- The same step, pipelined ------------------------------------
	// The engine overlaps compression and channel traffic with compute:
	// OnSave streams activations out during the forward pass, OnNeed
	// consumes prefetched restores during backward.
	engStore := offload.NewStore(quant.OptL())
	eng := offload.NewEngine(engStore, offload.EngineConfig{})
	defer eng.Close()

	eng.BeginStep()
	nn.SetHooks(m.Net, &nn.Hooks{OnSave: eng.Offload})
	out = m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	loss, grad = nn.SoftmaxCrossEntropy(out.T, labels)
	sizes, _, err = eng.EndForward(m.Net.SavedRefs())
	if err != nil {
		panic(err)
	}
	if err := eng.PrepareBackward(); err != nil {
		panic(err)
	}
	nn.SetHooks(m.Net, &nn.Hooks{OnNeed: func(ref *nn.ActRef) {
		if err := eng.Restore(ref); err != nil {
			panic(err)
		}
	}})
	m.Net.Backward(grad)
	nn.SetHooks(m.Net, nil)
	if err := eng.EndStep(); err != nil {
		panic(err)
	}
	es := eng.Stats()
	fmt.Printf("pipelined engine: %.2f MB -> %.2f MB streamed during forward, loss %.3f\n",
		float64(sizes.Orig)/1e6, float64(sizes.Comp)/1e6, loss)
	fmt.Printf("prefetcher served %d restores staged ahead, %d after a wait (in-flight peak %d B)\n",
		es.PrefetchHits, es.PrefetchWaits, es.MaxInFlight)

	// The same compression, driven through the one-call facade:
	res := jpegact.CompressActivation(jpegact.JPEGACT(), x, jpegact.KindConv, 0)
	fmt.Printf("(facade check: input batch compresses %.1fx)\n", res.Ratio())
}
