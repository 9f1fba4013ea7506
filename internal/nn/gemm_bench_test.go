package nn

import (
	"fmt"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/tensor"
)

// GEMM micro-benchmarks at the shapes training actually runs: the six
// convolutions of the bench model (ResNet18, width 16, 32×32 input — stem
// with k2 = 27, the 3×3 bodies, the 1×1 stride-2 shortcut), each through
// the three products a conv layer issues per batch element. `make bench`
// runs them; bench/ measures the same entry points as nn.gemm_*_gflops.

var benchConvShapes = []struct {
	name              string
	outC, k2, spatial int
}{
	{"stem3x3", 16, 27, 1024},
	{"s0conv1", 16, 144, 1024},
	{"s0conv2", 16, 144, 1024},
	{"s1conv1", 32, 144, 256},
	{"s1conv2", 32, 288, 256},
	{"s1proj1x1", 32, 16, 256},
}

func benchFill(s []float32, seed uint64) []float32 {
	r := tensor.NewRNG(seed)
	for i := range s {
		s[i] = float32(r.Norm()) + 3
	}
	return s
}

func benchGemm(b *testing.B, m, k, n int, run func(m, k, n int, a, bb, c []float32)) {
	a := benchFill(make([]float32, m*k), 1)
	bb := benchFill(make([]float32, k*n), 2)
	c := make([]float32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(m, k, n, a, bb, c)
	}
	b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchGemmShapes runs one entry point over the conv shapes; dims maps a
// conv (OutC, k2, spatial) to that product's (m, k, n).
func benchGemmShapes(b *testing.B, run func(m, k, n int, a, bb, c []float32), dims func(outC, k2, spatial int) (m, k, n int)) {
	for _, s := range benchConvShapes {
		m, k, n := dims(s.outC, s.k2, s.spatial)
		b.Run(fmt.Sprintf("%s_%dx%dx%d", s.name, m, k, n), func(b *testing.B) { benchGemm(b, m, k, n, run) })
	}
}

// Forward: out = W·cols.
func BenchmarkGemm(b *testing.B) {
	benchGemmShapes(b, Gemm, func(outC, k2, spatial int) (int, int, int) { return outC, k2, spatial })
}

// Backward: ∇cols = Wᵀ·∇y.
func BenchmarkGemmTA(b *testing.B) {
	benchGemmShapes(b, GemmTA, func(outC, k2, spatial int) (int, int, int) { return k2, outC, spatial })
}

// Backward: ∇W = ∇y·colsᵀ.
func BenchmarkGemmTB(b *testing.B) {
	benchGemmShapes(b, GemmTB, func(outC, k2, spatial int) (int, int, int) { return outC, spatial, k2 })
}

// The saxpy references on the largest body shape, so one `go test -bench
// Gemm` run shows how far the packed kernels are from the k-outer loops
// they must equal bit for bit.
func BenchmarkGemmSaxpyRef(b *testing.B)   { benchGemm(b, 16, 144, 1024, gemmSaxpy) }
func BenchmarkGemmTASaxpyRef(b *testing.B) { benchGemm(b, 144, 16, 1024, gemmTASaxpy) }
func BenchmarkGemmTBSaxpyRef(b *testing.B) { benchGemm(b, 16, 1024, 144, gemmTBSaxpy) }

// BenchmarkConv is the layer those products sit in — lowering, packing,
// the fork-join and col2im included — at the four stage shapes of the
// bench model (3×3, pad 1, C channels at H×H, batch 8), so a conv pass
// reads as a share of its own leaf rate in BenchmarkGemm. Backward counts
// its two products.
func BenchmarkConv(b *testing.B) {
	const batch = 8
	for _, s := range []struct{ c, hw int }{{16, 32}, {32, 16}, {64, 8}, {128, 4}} {
		conv := NewConv2D("c", s.c, s.c, 3, ConvOpts{Pad: 1}, tensor.NewRNG(1))
		in := &ActRef{Kind: compress.KindConv, T: tensor.New(batch, s.c, s.hw, s.hw)}
		benchFill(in.T.Data, 2)
		grad := tensor.New(batch, s.c, s.hw, s.hw)
		benchFill(grad.Data, 3)
		conv.Forward(in, true) // backward may be selected alone
		flop := 2 * float64(batch) * float64(s.c) * float64(9*s.c) * float64(s.hw*s.hw)
		passes := []struct {
			name string
			flop float64
			run  func()
		}{
			{"forward", flop, func() { conv.Forward(in, true) }},
			{"backward", 2 * flop, func() { conv.Backward(grad) }},
		}
		for _, p := range passes {
			b.Run(fmt.Sprintf("%s_%dx%dx%d", p.name, s.c, s.hw, s.hw), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.run()
				}
				b.ReportMetric(p.flop*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
