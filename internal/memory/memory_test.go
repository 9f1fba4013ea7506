package memory

import (
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/gpusim"
)

const gb = float64(1 << 30)

func TestResNet50ImageNetOver40GB(t *testing.T) {
	// The paper's intro claim: ResNet50/ImageNet training needs >40 GB of
	// activation storage, exceeding a 12 GB Titan V. Our inventory counts
	// the saved forward tensors only (no gradient workspace), landing at
	// ~34 GB for batch 256 — the same order, comfortably over the GPU.
	n := ResNet50ImageNet()
	if got := float64(n.TotalBytes(256)) / gb; got < 30 {
		t.Fatalf("ResNet50/ImageNet at batch 256: %.1f GB, want > 30", got)
	}
	// And it does not fit the 12 GB Titan V even at batch 128.
	if got := float64(n.TotalBytes(128)) / gb; got < 12 {
		t.Fatalf("ResNet50/ImageNet at batch 128: %.1f GB, want > 12", got)
	}
}

func TestDepthAndWidthOrdering(t *testing.T) {
	b := 32
	r18 := ResNet18ImageNet().TotalBytes(b)
	r50 := ResNet50ImageNet().TotalBytes(b)
	r101 := ResNet101ImageNet().TotalBytes(b)
	if !(r18 < r50 && r50 < r101) {
		t.Fatalf("ordering broken: %d %d %d", r18, r50, r101)
	}
}

func TestActBytes(t *testing.T) {
	a := Act{Channels: 64, Spatial: 56, Kind: compress.KindConv}
	want := int64(4 * 16 * 64 * 56 * 56)
	if got := a.Bytes(16); got != want {
		t.Fatalf("bytes %d, want %d", got, want)
	}
}

func TestCompressionShrinksFootprint(t *testing.T) {
	n := ResNet50ImageNet()
	b := 32
	base := n.TotalBytes(b)
	jpegAct := gpusim.JPEGAct(gpusim.JPEGActDefaultRatios())
	for _, s := range []gpusim.Scheme{gpusim.CDMAPlus(), gpusim.GIST(), gpusim.SFPROnly(), jpegAct} {
		comp := n.CompressedBytes(b, s.Ratio)
		if comp >= base {
			t.Fatalf("%s did not shrink footprint", s.Name)
		}
	}
	// Ordering: JPEG-ACT < SFPR < cDMA+ on the dense-dominated ResNet.
	act := n.CompressedBytes(b, jpegAct.Ratio)
	sfpr := n.CompressedBytes(b, gpusim.SFPROnly().Ratio)
	cdma := n.CompressedBytes(b, gpusim.CDMAPlus().Ratio)
	if !(act < sfpr && sfpr < cdma) {
		t.Fatalf("footprint ordering broken: %d %d %d", act, sfpr, cdma)
	}
}

func TestUnknownRatioDefaultsToOne(t *testing.T) {
	n := Network{Name: "x", Acts: []Act{{Channels: 1, Spatial: 8, Kind: compress.KindConv}}}
	if n.CompressedBytes(1, func(compress.Kind) float64 { return 0 }) != n.TotalBytes(1) {
		t.Fatal("missing ratio must mean uncompressed")
	}
}

func TestAllNetworksNonEmpty(t *testing.T) {
	nets := All()
	if len(nets) != 6 {
		t.Fatalf("networks %d", len(nets))
	}
	for _, n := range nets {
		if len(n.Acts) < 10 {
			t.Fatalf("%s has only %d activations", n.Name, len(n.Acts))
		}
		if n.TotalBytes(16) <= 0 {
			t.Fatalf("%s empty footprint", n.Name)
		}
	}
}

func TestDenseShareDrivesCDMAWeakness(t *testing.T) {
	// ResNets are dense-dominated (≥ 50% conv/sum bytes), which is why
	// cDMA+'s overall ratio is only ~1.3x (Fig. 19).
	n := ResNet50ImageNet()
	var dense, total int64
	for _, a := range n.Acts {
		b := a.Bytes(16)
		total += b
		if a.Kind == compress.KindConv {
			dense += b
		}
	}
	if frac := float64(dense) / float64(total); frac < 0.4 {
		t.Fatalf("dense share %.2f, expected ≥ 0.4", frac)
	}
	overall := float64(n.TotalBytes(16)) / float64(n.CompressedBytes(16, gpusim.CDMAPlus().Ratio))
	if overall > 2.0 {
		t.Fatalf("cDMA+ overall ratio %.2f should be low on ResNet", overall)
	}
}

func TestBlockName(t *testing.T) {
	if got := blockName("s", 2, 3); got != "s2b3" {
		t.Fatalf("blockName %q", got)
	}
	if got := blockName("s", 12, 21); got != "s12b21" {
		t.Fatalf("blockName %q", got)
	}
}
