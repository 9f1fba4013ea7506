package nn

// gemmTileAVX2 is the 4×16 micro-kernel in gemm_amd64.s.
//
//go:noescape
func gemmTileAVX2(k int, a *float32, lda int, panel *float32, c *float32, ldc int, mode int)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS preserves ymm
// state (gemm_amd64.s).
func cpuHasAVX2() bool

func init() {
	if cpuHasAVX2() {
		gemmTileAsm = gemmTileAVX2
	}
}
