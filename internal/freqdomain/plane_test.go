package freqdomain

import (
	"math"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/dct"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func testPlane(t *testing.T, n, c, h, w int) (*Plane, *tensor.Tensor) {
	t.Helper()
	r := tensor.NewRNG(7)
	x := data.ActivationTensor(r, n, c, h, w, 0.4, 1.0)
	p := Quantize(x, quant.OptL(), DefaultS)
	t.Cleanup(p.Release)
	return p, x
}

// idealValues synthesizes the unclamped dequantized reconstruction in
// float64 straight from the basis — the reference the coefficient-domain
// kernels are pinned against.
func idealValues(p *Plane) []float64 {
	sh := p.Info.Orig
	hw := sh.H * sh.W
	out := make([]float64, sh.N*sh.C*hw)
	bw, bh := p.blocksWide(), p.blocksHigh()
	for n := 0; n < sh.N; n++ {
		for c := 0; c < sh.C; c++ {
			inv := float64(p.InvScale(c))
			first, _ := p.planeBlocks(n, c)
			base := (n*sh.C + c) * hw
			for br := 0; br < bh; br++ {
				for bc := 0; bc < bw; bc++ {
					q := &p.Blocks[first+br*bw+bc]
					for r := 0; r < 8; r++ {
						for cc := 0; cc < 8; cc++ {
							var v float64
							for i := 0; i < 64; i++ {
								if q[i] != 0 {
									v += float64(float32(q[i])*p.dqNorm[i]) * float64(dct.NormBasis2D[i][r*8+cc])
								}
							}
							out[base+(br*8+r)*sh.W+bc*8+cc] = v * inv
						}
					}
				}
			}
		}
	}
	return out
}

// TestReconstructMatchesCompress pins the fallback path: Reconstruct
// must be bit-identical to the compress pipeline's spatial restore of
// the same blocks.
func TestReconstructMatchesCompress(t *testing.T) {
	r := tensor.NewRNG(3)
	x := data.ActivationTensor(r, 2, 3, 16, 16, 0.4, 1.0)
	pl := compress.JPEGAct(quant.OptL())
	blocks, scales, info := pl.QuantizeBlocks(x)
	want := pl.ReconstructBlocks(blocks, scales, info)

	p := Quantize(x, quant.OptL(), DefaultS)
	defer p.Release()
	got := p.Reconstruct()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("elem %d: freq fallback %v, spatial %v", i, got.Data[i], want.Data[i])
		}
	}
	compress.ReleaseBlocks(blocks)
}

// TestDotPlaneParseval pins DecodeDot's plane dot against the spatial
// inner product with the ideal reconstruction, over planes that mix
// all-zero, DC-only and full blocks.
func TestDotPlaneParseval(t *testing.T) {
	p, _ := testPlane(t, 2, 4, 16, 16)
	sh := p.Info.Orig
	hw := sh.H * sh.W
	r := tensor.NewRNG(11)
	dy := tensor.New(sh.N, sh.C, sh.H, sh.W)
	dy.FillNormal(r, 0, 1)
	ideal := idealValues(p)
	codes := make([]float32, hw)
	for n := 0; n < sh.N; n++ {
		for c := 0; c < sh.C; c++ {
			var want float64
			base := (n*sh.C + c) * hw
			for i := 0; i < hw; i++ {
				want += float64(dy.Data[base+i]) * ideal[base+i]
			}
			got := p.DecodeDot(dy.Data, n, c, codes)
			if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
				t.Fatalf("plane (%d,%d): DecodeDot %g, spatial ideal %g", n, c, got, want)
			}
		}
	}
}

// TestDotPlaneDenseBranch forces a block with AC terms so DecodeDot's
// full inverse-transform branch (not the flat DC-only shortcut) is
// exercised and agrees with the same reference.
func TestDotPlaneDenseBranch(t *testing.T) {
	r := tensor.NewRNG(5)
	x := tensor.New(1, 1, 8, 8)
	x.FillNormal(r, 0, 1) // dense noise → many surviving coefficients
	p := Quantize(x, quant.OptL(), DefaultS)
	defer p.Release()
	ac := 0
	for _, q := range p.Blocks[0][1:] {
		if q != 0 {
			ac++
		}
	}
	if ac == 0 {
		t.Fatal("block has no AC coefficients; the full branch is not reached")
	}
	dy := tensor.New(1, 1, 8, 8)
	dy.FillNormal(r, 0, 1)
	ideal := idealValues(p)
	var want float64
	for i := range ideal {
		want += float64(dy.Data[i]) * ideal[i]
	}
	got := p.DecodeDot(dy.Data, 0, 0, make([]float32, 64))
	if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
		t.Fatalf("dense block: DecodeDot %g, spatial ideal %g", got, want)
	}
}

// affine runs the two-pass fused kernel the batch-norm backward runs:
// decode each plane once, then the scale/add sweep over the codes.
func affine(p *Plane, dy, dx *tensor.Tensor, a, cx, bb float32) {
	sh := p.Info.Orig
	codes := make([]float32, sh.H*sh.W)
	for n := 0; n < sh.N; n++ {
		for c := 0; c < sh.C; c++ {
			p.DecodeDot(dy.Data, n, c, codes)
			p.AffineCodes(dy.Data, dx.Data, n, c, codes, a, cx, bb)
		}
	}
}

// TestAffineRestoreExactX pins the x term of the fused scale/add kernel
// bit-identically to the spatial restore: with a=0, cx=1, bb=0 the
// kernel must reproduce Reconstruct exactly (same clamp, same scale,
// same multiply).
func TestAffineRestoreExactX(t *testing.T) {
	p, _ := testPlane(t, 2, 3, 16, 16)
	sh := p.Info.Orig
	want := p.Reconstruct()
	dy := tensor.New(sh.N, sh.C, sh.H, sh.W)
	dx := tensor.New(sh.N, sh.C, sh.H, sh.W)
	affine(p, dy, dx, 0, 1, 0)
	for i := range want.Data {
		if math.Float32bits(dx.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("elem %d: AffineCodes x %v, Reconstruct %v", i, dx.Data[i], want.Data[i])
		}
	}
}

// TestAffineRestoreFull checks the general a·dy + cx·x + bb form.
func TestAffineRestoreFull(t *testing.T) {
	p, _ := testPlane(t, 1, 2, 8, 16)
	sh := p.Info.Orig
	x := p.Reconstruct()
	r := tensor.NewRNG(13)
	dy := tensor.New(sh.N, sh.C, sh.H, sh.W)
	dy.FillNormal(r, 0, 1)
	dx := tensor.New(sh.N, sh.C, sh.H, sh.W)
	const a, cx, bb = 1.5, -0.25, 0.125
	affine(p, dy, dx, a, cx, bb)
	for i := range dx.Data {
		want := a*float64(dy.Data[i]) + cx*float64(x.Data[i]) + bb
		if math.Abs(float64(dx.Data[i])-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("elem %d: got %v, want %v", i, dx.Data[i], want)
		}
	}
}

// TestCoefficientGEMMLayout checks that CoefGemm over GradCoefColumns
// computes every plane correlation ⟨x̃_ic, dy_oc⟩ of the spatial ideal —
// the contract the 1×1-conv ∇W GEMM rests on — and accumulates into wgT
// rather than overwriting it.
func TestCoefficientGEMMLayout(t *testing.T) {
	p, _ := testPlane(t, 2, 3, 8, 16)
	sh := p.Info.Orig
	hw := sh.H * sh.W
	const outC = 5
	r := tensor.NewRNG(17)
	dy := tensor.New(sh.N, outC, sh.H, sh.W)
	dy.FillNormal(r, 0, 1)
	ideal := idealValues(p)
	gf := make([]float32, hw*outC)
	wgT := make([]float32, sh.C*outC)
	want := make([]float64, sh.C*outC)
	for n := 0; n < sh.N; n++ {
		GradCoefColumns(dy, n, gf)
		p.CoefGemm(n, outC, gf, wgT)
		for ic := 0; ic < sh.C; ic++ {
			for oc := 0; oc < outC; oc++ {
				for k := 0; k < hw; k++ {
					want[ic*outC+oc] += ideal[(n*sh.C+ic)*hw+k] * float64(dy.Data[(n*outC+oc)*hw+k])
				}
			}
		}
	}
	for i, w := range want {
		if got := float64(wgT[i]); math.Abs(got-w) > 1e-2*(1+math.Abs(w)) {
			t.Fatalf("∇Wᵀ[%d][%d]: CoefGemm %g, spatial ideal %g", i/outC, i%outC, got, w)
		}
	}
}

// TestKernelsDeterministicAcrossWorkers pins bit-exact outputs of the
// parallel kernels at worker counts 1, 2 and GOMAXPROCS.
func TestKernelsDeterministicAcrossWorkers(t *testing.T) {
	p, _ := testPlane(t, 2, 8, 16, 16)
	sh := p.Info.Orig
	hw := sh.H * sh.W
	r := tensor.NewRNG(19)
	dy := tensor.New(sh.N, sh.C, sh.H, sh.W)
	dy.FillNormal(r, 0, 1)

	run := func() ([]float32, []float32) {
		gf := make([]float32, hw*sh.C)
		wgT := make([]float32, sh.C*sh.C)
		GradCoefColumns(dy, 0, gf)
		p.CoefGemm(0, sh.C, gf, wgT)
		return gf, wgT
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	refGF, refWG := run()
	for _, w := range []int{2, prev} {
		parallel.SetWorkers(w)
		gf, wgT := run()
		for i := range refGF {
			if math.Float32bits(gf[i]) != math.Float32bits(refGF[i]) {
				t.Fatalf("workers=%d: GradCoefColumns[%d] differs", w, i)
			}
		}
		for i := range refWG {
			if math.Float32bits(wgT[i]) != math.Float32bits(refWG[i]) {
				t.Fatalf("workers=%d: CoefGemm[%d] differs", w, i)
			}
		}
	}
}

// TestAligned pins the alignment predicate, including the trap where
// PadRows is zero but blocks still straddle planes.
func TestAligned(t *testing.T) {
	cases := []struct {
		sh   tensor.Shape
		want bool
	}{
		{tensor.Shape{N: 1, C: 2, H: 16, W: 16}, true},
		{tensor.Shape{N: 1, C: 2, H: 8, W: 8}, true},
		{tensor.Shape{N: 1, C: 2, H: 4, W: 8}, false}, // PadRows == 0, still misaligned
		{tensor.Shape{N: 1, C: 2, H: 16, W: 12}, false},
	}
	for _, tc := range cases {
		x := tensor.New(tc.sh.N, tc.sh.C, tc.sh.H, tc.sh.W)
		p := Quantize(x, quant.OptL(), DefaultS)
		if got := p.Aligned(); got != tc.want {
			t.Errorf("Aligned(%v) = %v, want %v", tc.sh, got, tc.want)
		}
		p.Release()
	}
}
