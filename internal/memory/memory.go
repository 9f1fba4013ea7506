// Package memory models the activation storage footprint of the
// full-scale networks during training — the motivation data of the
// paper's introduction (ResNet50/ImageNet needs >40 GB of activation
// storage, more than any consumer GPU) — and how far each compression
// method shrinks it. Unlike the functional training substrate, this is a
// pure shape model, so it uses the real network dimensions.
package memory

import "jpegact/internal/compress"

// Act is one saved activation of a full-scale network.
type Act struct {
	Name     string
	Channels int
	Spatial  int // square spatial edge
	Kind     compress.Kind
}

// Bytes returns the fp32 footprint at the given batch size.
func (a Act) Bytes(batch int) int64 {
	return int64(4*batch*a.Channels) * int64(a.Spatial) * int64(a.Spatial)
}

// Network is a full activation inventory.
type Network struct {
	Name string
	Acts []Act
}

// TotalBytes sums the fp32 footprint at the given batch size.
func (n Network) TotalBytes(batch int) int64 {
	var t int64
	for _, a := range n.Acts {
		t += a.Bytes(batch)
	}
	return t
}

// CompressedBytes applies a method's per-kind compression ratio (a
// gpusim scheme's Ratio) to the inventory; a ratio ≤ 0 stores the
// activation uncompressed.
func (n Network) CompressedBytes(batch int, ratio func(compress.Kind) float64) int64 {
	var t int64
	for _, a := range n.Acts {
		r := ratio(a.Kind)
		if r <= 0 {
			r = 1
		}
		t += int64(float64(a.Bytes(batch)) / r)
	}
	return t
}

// cnr appends the saved activations of one conv/norm/ReLU unit as the
// frameworks of §II-A store them: the conv input r, the norm input c and
// the ReLU output y (Fig. 3). The next unit's conv input aliases y in a
// framework with liveness dedup; the paper's >40 GB motivation figure is
// the naive save-every-output accounting, which this reproduces.
func cnr(acts []Act, name string, inC, outC, inS, outS int) []Act {
	return append(acts,
		Act{name + ".r", inC, inS, compress.KindReLUToConv},
		Act{name + ".c", outC, outS, compress.KindConv},
		Act{name + ".y", outC, outS, compress.KindReLUToConv},
	)
}

// bottleneck appends a ResNet bottleneck block (1×1, 3×3, 1×1 + sum);
// stage-entry blocks also carry a projection shortcut conv.
func bottleneck(acts []Act, name string, inC, midC, outC, inS, outS int) []Act {
	acts = cnr(acts, name+".a", inC, midC, inS, outS)
	acts = cnr(acts, name+".b", midC, midC, outS, outS)
	acts = cnr(acts, name+".c", midC, outC, outS, outS)
	if inC != outC || inS != outS {
		acts = append(acts,
			Act{name + ".proj.r", inC, inS, compress.KindReLUToConv},
			Act{name + ".proj.c", outC, outS, compress.KindConv},
		)
	}
	return append(acts, Act{name + ".sum", outC, outS, compress.KindConv})
}

// basic appends a ResNet basic block (3×3, 3×3 + sum), with a projection
// shortcut on stage entry.
func basic(acts []Act, name string, inC, outC, inS, outS int) []Act {
	acts = cnr(acts, name+".a", inC, outC, inS, outS)
	acts = cnr(acts, name+".b", outC, outC, outS, outS)
	if inC != outC || inS != outS {
		acts = append(acts,
			Act{name + ".proj.r", inC, inS, compress.KindReLUToConv},
			Act{name + ".proj.c", outC, outS, compress.KindConv},
		)
	}
	return append(acts, Act{name + ".sum", outC, outS, compress.KindConv})
}

// ResNet50ImageNet returns the full ResNet50 inventory at 224×224.
func ResNet50ImageNet() Network {
	n := Network{Name: "ResNet50/ImageNet"}
	n.Acts = cnr(n.Acts, "stem", 3, 64, 224, 112)
	n.Acts = append(n.Acts, Act{"maxpool", 64, 56, compress.KindPoolDropout})
	stages := []struct {
		blocks, mid, out, s int
	}{{3, 64, 256, 56}, {4, 128, 512, 28}, {6, 256, 1024, 14}, {3, 512, 2048, 7}}
	inC := 64
	inS := 56
	for si, st := range stages {
		for b := 0; b < st.blocks; b++ {
			name := blockName("s", si, b)
			outS := st.s
			n.Acts = bottleneck(n.Acts, name, inC, st.mid, st.out, inS, outS)
			inC, inS = st.out, outS
		}
	}
	return n
}

// ResNet101ImageNet returns the ResNet101 inventory (23-block stage 3).
func ResNet101ImageNet() Network {
	n := Network{Name: "ResNet101/ImageNet"}
	n.Acts = cnr(n.Acts, "stem", 3, 64, 224, 112)
	n.Acts = append(n.Acts, Act{"maxpool", 64, 56, compress.KindPoolDropout})
	stages := []struct {
		blocks, mid, out, s int
	}{{3, 64, 256, 56}, {4, 128, 512, 28}, {23, 256, 1024, 14}, {3, 512, 2048, 7}}
	inC := 64
	inS := 56
	for si, st := range stages {
		for b := 0; b < st.blocks; b++ {
			n.Acts = bottleneck(n.Acts, blockName("s", si, b), inC, st.mid, st.out, inS, st.s)
			inC, inS = st.out, st.s
		}
	}
	return n
}

// ResNet18ImageNet returns the basic-block ResNet18 inventory.
func ResNet18ImageNet() Network {
	n := Network{Name: "ResNet18/ImageNet"}
	n.Acts = cnr(n.Acts, "stem", 3, 64, 224, 112)
	n.Acts = append(n.Acts, Act{"maxpool", 64, 56, compress.KindPoolDropout})
	stages := []struct {
		blocks, out, s int
	}{{2, 64, 56}, {2, 128, 28}, {2, 256, 14}, {2, 512, 7}}
	inC := 64
	inS := 56
	for si, st := range stages {
		for b := 0; b < st.blocks; b++ {
			n.Acts = basic(n.Acts, blockName("s", si, b), inC, st.out, inS, st.s)
			inC, inS = st.out, st.s
		}
	}
	return n
}

// VGG16CIFAR returns the VGG-16 inventory at 32×32 with dropout.
func VGG16CIFAR() Network {
	n := Network{Name: "VGG16/CIFAR10"}
	cfg := []struct {
		convs, c, s int
	}{{2, 64, 32}, {2, 128, 16}, {3, 256, 8}, {3, 512, 4}, {3, 512, 2}}
	inC := 3
	inS := 32
	for si, st := range cfg {
		for b := 0; b < st.convs; b++ {
			n.Acts = cnr(n.Acts, blockName("s", si, b), inC, st.c, inS, st.s)
			inC, inS = st.c, st.s
		}
		n.Acts = append(n.Acts,
			Act{blockName("pool", si, 0), st.c, st.s / 2, compress.KindPoolDropout},
			Act{blockName("drop", si, 0), st.c, st.s / 2, compress.KindPoolDropout},
		)
		inS = st.s / 2
	}
	return n
}

// WRN28x10CIFAR returns the WRN-28-10 inventory at 32×32.
func WRN28x10CIFAR() Network {
	n := Network{Name: "WRN-28-10/CIFAR10"}
	n.Acts = cnr(n.Acts, "stem", 3, 16, 32, 32)
	stages := []struct {
		blocks, out, s int
	}{{4, 160, 32}, {4, 320, 16}, {4, 640, 8}}
	inC := 16
	inS := 32
	for si, st := range stages {
		for b := 0; b < st.blocks; b++ {
			name := blockName("s", si, b)
			n.Acts = basic(n.Acts, name, inC, st.out, inS, st.s)
			// WRN places dropout inside each block.
			n.Acts = append(n.Acts, Act{name + ".drop", st.out, st.s, compress.KindPoolDropout})
			inC, inS = st.out, st.s
		}
	}
	return n
}

// VDSRDiv2k returns the 20-layer VDSR inventory at 64×64 crops.
func VDSRDiv2k() Network {
	n := Network{Name: "VDSR/Div2k"}
	inC := 1
	for i := 0; i < 20; i++ {
		n.Acts = cnr(n.Acts, blockName("l", i, 0), inC, 64, 64, 64)
		inC = 64
	}
	return n
}

// All returns every full-scale inventory.
func All() []Network {
	return []Network{
		VGG16CIFAR(), ResNet50ImageNet(), ResNet101ImageNet(),
		WRN28x10CIFAR(), ResNet18ImageNet(), VDSRDiv2k(),
	}
}

func blockName(prefix string, a, b int) string {
	const digits = "0123456789"
	out := prefix
	if a >= 10 {
		out += string(digits[a/10])
	}
	out += string(digits[a%10]) + "b"
	if b >= 10 {
		out += string(digits[b/10])
	}
	return out + string(digits[b%10])
}
