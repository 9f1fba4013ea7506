package nn

import (
	"testing"
)

// Conv-shaped GEMM benchmarks: the forward lowering of a 64-channel 3×3
// conv on a 16×16 feature map (m=OutC, k=InC·K², n=H·W). These seed the
// perf trajectory for the parallel execution layer (`make bench` runs
// them; bench/ measures the same kernels as nn.gemm_*_gflops).

const (
	benchM = 64
	benchK = 576
	benchN = 256
)

func gemmBenchOperands(b *testing.B, am, an int) (a, bb, c []float32) {
	b.Helper()
	a = make([]float32, am*an)
	bb = make([]float32, benchK*benchN)
	c = make([]float32, benchM*benchN)
	for i := range a {
		a[i] = float32(i%17) * 0.25
	}
	for i := range bb {
		bb[i] = float32(i%13) * 0.5
	}
	return a, bb, c
}

func BenchmarkGemm(b *testing.B) {
	a, bb, c := gemmBenchOperands(b, benchM, benchK)
	b.SetBytes(int64(4 * (benchM*benchK + benchK*benchN)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Gemm(benchM, benchK, benchN, a, bb, c)
	}
}

func BenchmarkGemmTA(b *testing.B) {
	a, bb, c := gemmBenchOperands(b, benchK, benchM)
	b.SetBytes(int64(4 * (benchM*benchK + benchK*benchN)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GemmTA(benchM, benchK, benchN, a, bb, c)
	}
}

func BenchmarkGemmTB(b *testing.B) {
	a, bb, c := gemmBenchOperands(b, benchM, benchK)
	bt := make([]float32, benchN*benchK)
	for i := range bt {
		bt[i] = float32(i%13) * 0.5
	}
	_ = bb
	b.SetBytes(int64(4 * (benchM*benchK + benchK*benchN)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GemmTB(benchM, benchK, benchN, a, bt, c)
	}
}

// Saxpy reference benchmarks: the pre-packing kernels from gemm_ref.go
// on the same shapes, so one `go test -bench Gemm` run is a same-machine
// before/after pair for the packed rewrite.

func BenchmarkGemmSaxpyRef(b *testing.B) {
	a, bb, c := gemmBenchOperands(b, benchM, benchK)
	b.SetBytes(int64(4 * (benchM*benchK + benchK*benchN)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gemmSaxpy(benchM, benchK, benchN, a, bb, c)
	}
}

func BenchmarkGemmTASaxpyRef(b *testing.B) {
	a, bb, c := gemmBenchOperands(b, benchK, benchM)
	b.SetBytes(int64(4 * (benchM*benchK + benchK*benchN)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gemmTASaxpy(benchM, benchK, benchN, a, bb, c)
	}
}

func BenchmarkGemmTBSaxpyRef(b *testing.B) {
	a, _, c := gemmBenchOperands(b, benchM, benchK)
	bt := make([]float32, benchN*benchK)
	for i := range bt {
		bt[i] = float32(i%13) * 0.5
	}
	b.SetBytes(int64(4 * (benchM*benchK + benchK*benchN)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gemmTBSaxpy(benchM, benchK, benchN, a, bt, c)
	}
}
