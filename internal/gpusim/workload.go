package gpusim

import "jpegact/internal/compress"

// LayerOp is one kernel in the CNR microbenchmark with the activation it
// must save for the backward pass.
type LayerOp struct {
	Name     string
	Class    KernelClass
	FLOPs    float64
	MemBytes float64 // HBM traffic of the kernel itself
	// ActBytes is the float32 footprint of the activation saved after
	// this op (0 = nothing saved).
	ActBytes float64
	Kind     compress.Kind
}

// Workload is one network's microbenchmark: the layers of three sampled
// CNR blocks (§VI-D: the first, middle and last block, batch 16).
type Workload struct {
	Name   string
	Layers []LayerOp
}

// cnrBlock builds the three kernels of one conv/norm/ReLU block at batch
// n, spatial h×w, inC→outC channels with a k×k kernel. VDSR-style blocks
// use the low-density kernel class.
func cnrBlock(name string, n, inC, outC, h, w, k int, lowDensity bool) []LayerOp {
	spatial := float64(h * w)
	batch := float64(n)
	convFLOPs := 2 * batch * float64(outC) * spatial * float64(inC*k*k)
	actIn := float64(4 * batch * float64(inC) * spatial)   // conv input (saved)
	actOut := float64(4 * batch * float64(outC) * spatial) // conv output = norm input (saved)

	class := KernelWinograd
	if k == 1 {
		class = KernelGEMM
	}
	if lowDensity {
		class = KernelLowDensity
	}
	return []LayerOp{
		{Name: name + ".conv", Class: class, FLOPs: convFLOPs, MemBytes: actIn + actOut, ActBytes: actIn, Kind: compress.KindReLUToConv},
		{Name: name + ".norm", Class: KernelElementwise, MemBytes: 2 * actOut, ActBytes: actOut, Kind: compress.KindConv},
		{Name: name + ".relu", Class: KernelElementwise, MemBytes: 2 * actOut, ActBytes: actOut, Kind: compress.KindReLUToConv},
	}
}

// withDropout appends a dropout op after a block (VGG, WRN).
func withDropout(ops []LayerOp, n, c, h, w int) []LayerOp {
	bytes := float64(4 * float64(n*c*h*w))
	return append(ops, LayerOp{
		Name: "dropout", Class: KernelElementwise, MemBytes: 2 * bytes,
		ActBytes: bytes, Kind: compress.KindPoolDropout,
	})
}

const batch = 16

// Workloads returns the seven network microbenchmarks of Fig. 20 with
// full-scale layer dimensions (the performance model needs only shapes,
// so unlike the functional training substrate it uses the real sizes).
func Workloads() []Workload {
	var ws []Workload

	// CIFAR10 networks: 32×32 inputs.
	vgg := Workload{Name: "VGG"}
	vgg.Layers = append(vgg.Layers, cnrBlock("first", batch, 64, 64, 32, 32, 3, false)...)
	vgg.Layers = withDropout(vgg.Layers, batch, 64, 32, 32)
	vgg.Layers = append(vgg.Layers, cnrBlock("mid", batch, 256, 256, 8, 8, 3, false)...)
	vgg.Layers = withDropout(vgg.Layers, batch, 256, 8, 8)
	vgg.Layers = append(vgg.Layers, cnrBlock("last", batch, 512, 512, 4, 4, 3, false)...)
	vgg.Layers = withDropout(vgg.Layers, batch, 512, 4, 4)
	ws = append(ws, vgg)

	r50c := Workload{Name: "ResNet50"}
	// Bottleneck blocks: 1×1 reduce, 3×3, 1×1 expand (the GIST-hostile
	// large-activation/low-FLOP shape, §VI-D).
	r50c.Layers = append(r50c.Layers, cnrBlock("first.a", batch, 256, 64, 32, 32, 1, false)...)
	r50c.Layers = append(r50c.Layers, cnrBlock("first.b", batch, 64, 64, 32, 32, 3, false)...)
	r50c.Layers = append(r50c.Layers, cnrBlock("first.c", batch, 64, 256, 32, 32, 1, false)...)
	r50c.Layers = append(r50c.Layers, cnrBlock("mid.a", batch, 512, 128, 16, 16, 1, false)...)
	r50c.Layers = append(r50c.Layers, cnrBlock("mid.b", batch, 128, 128, 16, 16, 3, false)...)
	r50c.Layers = append(r50c.Layers, cnrBlock("mid.c", batch, 128, 512, 16, 16, 1, false)...)
	r50c.Layers = append(r50c.Layers, cnrBlock("last.a", batch, 2048, 512, 8, 8, 1, false)...)
	r50c.Layers = append(r50c.Layers, cnrBlock("last.b", batch, 512, 512, 8, 8, 3, false)...)
	r50c.Layers = append(r50c.Layers, cnrBlock("last.c", batch, 512, 2048, 8, 8, 1, false)...)
	ws = append(ws, r50c)

	r101 := r50c
	r101.Name = "ResNet101"
	ws = append(ws, r101)

	wrn := Workload{Name: "WRN"}
	wrn.Layers = append(wrn.Layers, cnrBlock("first", batch, 160, 160, 32, 32, 3, false)...)
	wrn.Layers = withDropout(wrn.Layers, batch, 160, 32, 32)
	wrn.Layers = append(wrn.Layers, cnrBlock("mid", batch, 320, 320, 16, 16, 3, false)...)
	wrn.Layers = withDropout(wrn.Layers, batch, 320, 16, 16)
	wrn.Layers = append(wrn.Layers, cnrBlock("last", batch, 640, 640, 8, 8, 3, false)...)
	wrn.Layers = withDropout(wrn.Layers, batch, 640, 8, 8)
	ws = append(ws, wrn)

	// ImageNet networks: 224×224 inputs.
	r18i := Workload{Name: "ResNet18/IN"}
	r18i.Layers = append(r18i.Layers, cnrBlock("first", batch, 64, 64, 56, 56, 3, false)...)
	r18i.Layers = append(r18i.Layers, cnrBlock("mid", batch, 128, 128, 28, 28, 3, false)...)
	r18i.Layers = append(r18i.Layers, cnrBlock("last", batch, 512, 512, 7, 7, 3, false)...)
	ws = append(ws, r18i)

	r50i := Workload{Name: "ResNet50/IN"}
	r50i.Layers = append(r50i.Layers, cnrBlock("first.a", batch, 256, 64, 56, 56, 1, false)...)
	r50i.Layers = append(r50i.Layers, cnrBlock("first.b", batch, 64, 64, 56, 56, 3, false)...)
	r50i.Layers = append(r50i.Layers, cnrBlock("first.c", batch, 64, 256, 56, 56, 1, false)...)
	r50i.Layers = append(r50i.Layers, cnrBlock("mid.a", batch, 512, 128, 28, 28, 1, false)...)
	r50i.Layers = append(r50i.Layers, cnrBlock("mid.b", batch, 128, 128, 28, 28, 3, false)...)
	r50i.Layers = append(r50i.Layers, cnrBlock("mid.c", batch, 128, 512, 28, 28, 1, false)...)
	r50i.Layers = append(r50i.Layers, cnrBlock("last.a", batch, 2048, 512, 7, 7, 1, false)...)
	r50i.Layers = append(r50i.Layers, cnrBlock("last.b", batch, 512, 512, 7, 7, 3, false)...)
	r50i.Layers = append(r50i.Layers, cnrBlock("last.c", batch, 512, 2048, 7, 7, 1, false)...)
	ws = append(ws, r50i)

	// VDSR/Div2k: few channels, large planes, low-density kernels.
	vdsr := Workload{Name: "VDSR"}
	vdsr.Layers = append(vdsr.Layers, cnrBlock("first", batch, 64, 64, 64, 64, 3, true)...)
	vdsr.Layers = append(vdsr.Layers, cnrBlock("mid", batch, 64, 64, 64, 64, 3, true)...)
	vdsr.Layers = append(vdsr.Layers, cnrBlock("last", batch, 64, 64, 64, 64, 3, true)...)
	ws = append(ws, vdsr)

	return ws
}

// TotalActBytes sums the saved-activation footprint of the workload.
func (w Workload) TotalActBytes() float64 {
	var t float64
	for _, l := range w.Layers {
		t += l.ActBytes
	}
	return t
}
