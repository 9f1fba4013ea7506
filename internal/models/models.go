// Package models builds scaled-down versions of the six networks the
// paper evaluates (Table I) — VGG-16, ResNet18/50/101, Wide ResNet and
// VDSR. The topologies keep the structural features that drive the
// compression results — CNR (conv/norm/ReLU) blocks everywhere, residual
// sums in the ResNets, bottleneck 1×1 convolutions in ResNet50/101,
// dropout in VGG and WRN (which enables GIST's CSR and BRC), and the
// all-convolutional no-pool body of VDSR — while shrinking width/depth so
// training runs on one CPU core (DESIGN.md substitution 3).
package models

import (
	"fmt"

	"jpegact/internal/nn"
	"jpegact/internal/tensor"
)

// Task distinguishes classification models from super-resolution.
type Task int

const (
	// Classify is image classification (accuracy metric).
	Classify Task = iota
	// SuperRes is single-image super-resolution (PSNR metric).
	SuperRes
)

// Model couples a network with its dataset geometry and metadata.
type Model struct {
	Name       string
	Net        nn.Layer
	Task       Task
	InC        int
	H, W       int
	Classes    int // Classify only
	HasDropout bool
}

// Scale controls the size of every mini model. The zero value selects the
// default test-friendly scale.
type Scale struct {
	Width  int // base channel count (default 8)
	Blocks int // residual blocks per stage (default 2)
	H, W   int // input spatial size (default 16)
}

func (s Scale) orDefault() Scale {
	if s.Width == 0 {
		s.Width = 8
	}
	if s.Blocks == 0 {
		s.Blocks = 2
	}
	if s.H == 0 {
		s.H = 16
	}
	if s.W == 0 {
		s.W = 16
	}
	return s
}

// cnr appends a conv/norm/ReLU block — the repeating unit of Fig. 3.
func cnr(seq *nn.Sequential, name string, inC, outC, kernel int, opts nn.ConvOpts, rng *tensor.RNG) {
	seq.Add(
		nn.NewConv2D(name+".conv", inC, outC, kernel, opts, rng),
		nn.NewBatchNorm(name+".bn", outC),
		nn.NewReLU(name+".relu"),
	)
}

// basicBlock is the ResNet18/WRN unit: two 3×3 CNRs with a residual sum.
func basicBlock(name string, inC, outC, stride int, dropout float64, rng *tensor.RNG) nn.Layer {
	body := nn.NewSequential(name + ".body")
	body.Add(
		nn.NewConv2D(name+".conv1", inC, outC, 3, nn.ConvOpts{Stride: stride, Pad: 1}, rng),
		nn.NewBatchNorm(name+".bn1", outC),
		nn.NewReLU(name+".relu1"),
	)
	if dropout > 0 {
		body.Add(nn.NewDropout(name+".drop", dropout, rng))
	}
	body.Add(
		nn.NewConv2D(name+".conv2", outC, outC, 3, nn.ConvOpts{Pad: 1}, rng),
		nn.NewBatchNorm(name+".bn2", outC),
	)
	var shortcut nn.Layer
	if stride != 1 || inC != outC {
		shortcut = nn.NewSequential(name+".proj",
			nn.NewConv2D(name+".projconv", inC, outC, 1, nn.ConvOpts{Stride: stride}, rng),
			nn.NewBatchNorm(name+".projbn", outC),
		)
	}
	return nn.NewSequential(name,
		nn.NewResidual(name+".res", body, shortcut),
		nn.NewReLU(name+".relu2"),
	)
}

// bottleneckBlock is the ResNet50/101 unit: 1×1 reduce, 3×3, 1×1 expand.
// The 1×1 convolutions are what create the large-activation/low-FLOP
// layers that hurt GIST's CSR conversion (§VI-D).
func bottleneckBlock(name string, inC, outC, stride int, rng *tensor.RNG) nn.Layer {
	mid := outC / 2
	if mid < 1 {
		mid = 1
	}
	body := nn.NewSequential(name+".body",
		nn.NewConv2D(name+".conv1", inC, mid, 1, nn.ConvOpts{}, rng),
		nn.NewBatchNorm(name+".bn1", mid),
		nn.NewReLU(name+".relu1"),
		nn.NewConv2D(name+".conv2", mid, mid, 3, nn.ConvOpts{Stride: stride, Pad: 1}, rng),
		nn.NewBatchNorm(name+".bn2", mid),
		nn.NewReLU(name+".relu2"),
		nn.NewConv2D(name+".conv3", mid, outC, 1, nn.ConvOpts{}, rng),
		nn.NewBatchNorm(name+".bn3", outC),
	)
	var shortcut nn.Layer
	if stride != 1 || inC != outC {
		shortcut = nn.NewSequential(name+".proj",
			nn.NewConv2D(name+".projconv", inC, outC, 1, nn.ConvOpts{Stride: stride}, rng),
			nn.NewBatchNorm(name+".projbn", outC),
		)
	}
	return nn.NewSequential(name,
		nn.NewResidual(name+".res", body, shortcut),
		nn.NewReLU(name+".relu3"),
	)
}

func resnet(name string, bottleneck bool, stages []int, sc Scale, classes int, rng *tensor.RNG) *Model {
	sc = sc.orDefault()
	w := sc.Width
	net := nn.NewSequential(name)
	cnr(net, name+".stem", 3, w, 3, nn.ConvOpts{Pad: 1}, rng)
	inC := w
	for si, blocks := range stages {
		outC := w << si
		for b := 0; b < blocks; b++ {
			stride := 1
			if si > 0 && b == 0 {
				stride = 2
			}
			bname := fmt.Sprintf("%s.s%db%d", name, si, b)
			if bottleneck {
				net.Add(bottleneckBlock(bname, inC, outC, stride, rng))
			} else {
				net.Add(basicBlock(bname, inC, outC, stride, 0, rng))
			}
			inC = outC
		}
	}
	net.Add(nn.NewGlobalAvgPool(name+".gap"), nn.NewLinear(name+".fc", inC, classes, rng))
	return &Model{Name: name, Net: net, Task: Classify, InC: 3, H: sc.H, W: sc.W, Classes: classes}
}

// ResNet18 builds the basic-block mini ResNet.
func ResNet18(sc Scale, classes int, rng *tensor.RNG) *Model {
	sc = sc.orDefault()
	return resnet("ResNet18", false, []int{sc.Blocks, sc.Blocks}, sc, classes, rng)
}

// ResNet50 builds the bottleneck mini ResNet.
func ResNet50(sc Scale, classes int, rng *tensor.RNG) *Model {
	sc = sc.orDefault()
	return resnet("ResNet50", true, []int{sc.Blocks, sc.Blocks}, sc, classes, rng)
}

// ResNet101 builds the deeper bottleneck mini ResNet.
func ResNet101(sc Scale, classes int, rng *tensor.RNG) *Model {
	sc = sc.orDefault()
	return resnet("ResNet101", true, []int{sc.Blocks, sc.Blocks + 1, sc.Blocks}, sc, classes, rng)
}

// WRN builds the Wide ResNet: basic blocks at double width with dropout
// inside each block (Zagoruyko & Komodakis).
func WRN(sc Scale, classes int, rng *tensor.RNG) *Model {
	sc = sc.orDefault()
	w := sc.Width * 2
	net := nn.NewSequential("WRN")
	cnr(net, "WRN.stem", 3, w, 3, nn.ConvOpts{Pad: 1}, rng)
	inC := w
	for si := 0; si < 2; si++ {
		outC := w << si
		for b := 0; b < sc.Blocks; b++ {
			stride := 1
			if si > 0 && b == 0 {
				stride = 2
			}
			bname := fmt.Sprintf("WRN.s%db%d", si, b)
			net.Add(basicBlock(bname, inC, outC, stride, 0.3, rng))
			inC = outC
		}
	}
	net.Add(nn.NewGlobalAvgPool("WRN.gap"), nn.NewLinear("WRN.fc", inC, classes, rng))
	return &Model{Name: "WRN", Net: net, Task: Classify, InC: 3, H: sc.H, W: sc.W, Classes: classes, HasDropout: true}
}

// VGG builds the mini VGG-16: plain CNR stacks with max-pool and dropout
// between stages, no residual connections.
func VGG(sc Scale, classes int, rng *tensor.RNG) *Model {
	sc = sc.orDefault()
	w := sc.Width
	net := nn.NewSequential("VGG")
	inC := 3
	for si := 0; si < 2; si++ {
		outC := w << si
		for b := 0; b < 2; b++ {
			cnr(net, fmt.Sprintf("VGG.s%dc%d", si, b), inC, outC, 3, nn.ConvOpts{Pad: 1}, rng)
			inC = outC
		}
		net.Add(
			nn.NewMaxPool2(fmt.Sprintf("VGG.pool%d", si)),
			nn.NewDropout(fmt.Sprintf("VGG.drop%d", si), 0.4, rng),
		)
	}
	net.Add(nn.NewGlobalAvgPool("VGG.gap"), nn.NewLinear("VGG.fc", inC, classes, rng))
	return &Model{Name: "VGG", Net: net, Task: Classify, InC: 3, H: sc.H, W: sc.W, Classes: classes, HasDropout: true}
}

// VDSR builds the mini super-resolution network: an all-convolutional
// CNR body with a global residual skip (the network predicts the
// high-frequency residual added back to the interpolated input). All
// activations have few channels and large spatial dims — the property
// behind VDSR's distinctive offload behaviour in Fig. 20.
func VDSR(sc Scale, rng *tensor.RNG) *Model {
	sc = sc.orDefault()
	w := sc.Width
	body := nn.NewSequential("VDSR.body")
	cnr(body, "VDSR.in", 1, w, 3, nn.ConvOpts{Pad: 1}, rng)
	for i := 0; i < sc.Blocks+1; i++ {
		cnr(body, fmt.Sprintf("VDSR.mid%d", i), w, w, 3, nn.ConvOpts{Pad: 1}, rng)
	}
	body.Add(nn.NewConv2D("VDSR.out", w, 1, 3, nn.ConvOpts{Pad: 1, Bias: true}, rng))
	net := nn.NewSequential("VDSR", nn.NewResidual("VDSR.skip", body, nil))
	return &Model{Name: "VDSR", Net: net, Task: SuperRes, InC: 1, H: sc.H, W: sc.W}
}

// Names lists the bundled networks in Table I order: the five
// classifiers, then VDSR.
var Names = []string{"VGG", "ResNet50", "ResNet101", "WRN", "ResNet18", "VDSR"}

// ByName builds the named network (one of Names) from rng; classes is
// ignored by VDSR. ok is false for a name it does not know.
func ByName(name string, sc Scale, classes int, rng *tensor.RNG) (m *Model, ok bool) {
	switch name {
	case "VGG":
		return VGG(sc, classes, rng), true
	case "ResNet18":
		return ResNet18(sc, classes, rng), true
	case "ResNet50":
		return ResNet50(sc, classes, rng), true
	case "ResNet101":
		return ResNet101(sc, classes, rng), true
	case "WRN":
		return WRN(sc, classes, rng), true
	case "VDSR":
		return VDSR(sc, rng), true
	}
	return nil, false
}

// All returns every bundled model at the given scale in Names order,
// built one after another from one generator.
func All(sc Scale, classes int, seed uint64) []*Model {
	rng := tensor.NewRNG(seed)
	out := make([]*Model, len(Names))
	for i, name := range Names {
		out[i], _ = ByName(name, sc, classes, rng)
	}
	return out
}
