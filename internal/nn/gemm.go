package nn

import (
	"math"
	"sync/atomic"

	"jpegact/internal/freelist"
	"jpegact/internal/parallel"
)

// Packed GEMM: one driver, one micro-kernel contract, two
// implementations of it.
//
// All three entry points pack their right operand into k-major panels of
// gemmNR columns (zero-padded at the right edge) and hand gemmMR×gemmNR
// tiles of C to a micro-kernel that keeps the tile in registers for the
// whole k loop. gemmTileGo is the portable kernel — a 2×4 scalar register
// tile walked over the panel — and runs everywhere: it is the production
// path where no SIMD kernel exists, it takes row/column tails, and it is
// the test oracle of the assembly kernel. gemmTileAsm is the platform's
// SIMD kernel (gemm_amd64.s: 4×16 in eight ymm accumulators), used for
// full tiles only.
//
// Determinism contract (the repo-wide invariant): every C element sees
// exactly the float32 op sequence of the k-outer saxpy reference
// (gemm_ref_test.go) — ascending k, one rounded multiply then one rounded
// add per step, no partial sums, no fused multiply-add — at any worker
// count and on either kernel. SIMD lanes therefore run across C columns
// only, never across k, and the Go kernels write the product as
// float32(av*b) so no toolchain may fuse it. Packing, tiling and worker
// sharding only reorder work BETWEEN C elements. The arithmetic is plain
// IEEE: every product is added, whatever A holds — a zero in A
// contributes its ±0 (so a C of −0 comes back +0) and 0·Inf = NaN
// propagates. gemm_equiv_test.go pins all of it on Float32bits.

const (
	// gemmMR×gemmNR is the micro-tile: 4 rows × 16 columns is eight
	// 8-lane accumulators, which with two B vectors, one broadcast and
	// two products fits the sixteen ymm registers; per k step it does 64
	// multiply-adds on 6 loads. The portable kernel covers the same tile
	// with 2×4 scalar sub-tiles (8 accumulators in 16 scalar registers).
	gemmMR = 4
	gemmNR = 16

	// gemmMinWork is the minimum number of multiply-adds one parallel
	// chunk should carry; below it the goroutine overhead dominates.
	gemmMinWork = 1 << 15
)

// gemmMode selects how a micro-kernel seeds its accumulators and retires
// them; between the two it always runs s += float32(a·b) over ascending k.
type gemmMode int

const (
	gemmAccumulate gemmMode = iota // s = C … C = s: the Gemm/GemmTA reference
	gemmDotAdd                     // s = 0 … C += s: the GemmTB reference
	gemmOverwrite                  // s = 0 … C = s: gemmAccumulate into a C of +0, without clearing it first
)

// gemmTileAsm, when set, computes one full gemmMR×gemmNR tile like
// gemmTileGo(…, gemmMR, gemmNR, mode) for k ≥ 1. The platform file
// sets it once at init if the CPU qualifies; nothing else selects it.
var gemmTileAsm func(k int, a *float32, lda int, panel *float32, c *float32, ldc int, mode int)

// scratch is the package's one free list of float32 scratch: a GEMM's
// packed panels and transposed left operand, and a conv layer's lowered
// blocks, packed ∇y blocks and per-element ∇W partials, all requests of
// every size and every worker. A request takes the smallest free buffer
// that holds it, so a 2,048-float ∇y block does not hold an 18,432-float
// block of lowered panels; what nothing fits is allocated at exactly its
// length. A layer sequence that repeats each step is served from the
// buffers its first steps allocated. Buffers go back dirty (getScratch).
var scratch = freelist.New[float32](scratchBytes, 0, nil)

// scratchBytes bounds the capacity the list keeps. It is twenty times what
// a step of the bench-scale ResNet18 leaves there at two workers (≈ 0.8
// MB, most of it ∇W partials, which grow with the batch), so a repeating
// step never evicts.
const scratchBytes = 16 << 20

// poison, when set, fills every buffer with NaN before getScratch hands
// it out, so a kernel that reads scratch it did not write poisons its
// result. Only tests set it (export_test.go).
var poison atomic.Bool

// getScratch returns a length-n buffer from scratch holding whatever its
// last user left; scratch.Put hands it back.
func getScratch(n int) []float32 {
	b := scratch.Get(n)
	if poison.Load() {
		for i := range b {
			b[i] = float32(math.NaN())
		}
	}
	return b
}

func gemmPanels(n int) int { return (n + gemmNR - 1) / gemmNR }

// packB lays B (K×N, row stride ldb) out as gemmPanels(n) panels of K
// rows × gemmNR columns, k-major within a panel, the last one zero-padded.
// Packing is a serial O(k·n) copy: 1/m of the O(m·k·n) total work.
func packB(k, n, ldb int, b, packed []float32) {
	for p := 0; p < gemmPanels(n); p++ {
		j0 := p * gemmNR
		dst := packed[p*k*gemmNR : (p+1)*k*gemmNR]
		if w := n - j0; w < gemmNR {
			clear(dst)
			for kk := 0; kk < k; kk++ {
				copy(dst[kk*gemmNR:kk*gemmNR+w], b[kk*ldb+j0:])
			}
			continue
		}
		for kk := 0; kk < k; kk++ {
			*(*[gemmNR]float32)(dst[kk*gemmNR:]) = *(*[gemmNR]float32)(b[kk*ldb+j0:])
		}
	}
}

// packBT packs Bᵀ for B stored N×K (row stride ldb): panel p holds B rows
// [16p, 16p+16) transposed. Four rows go down together so every 64-byte
// panel line is written in four 16-byte pieces rather than sixteen scalar
// ones.
func packBT(k, n, ldb int, b, packed []float32) {
	for p := 0; p < gemmPanels(n); p++ {
		j0 := p * gemmNR
		dst := packed[p*k*gemmNR : (p+1)*k*gemmNR]
		w := min(gemmNR, n-j0)
		if w < gemmNR {
			clear(dst)
		}
		jj := 0
		for ; jj+4 <= w; jj += 4 {
			r0 := b[(j0+jj)*ldb:][:k]
			r1 := b[(j0+jj+1)*ldb:][:k]
			r2 := b[(j0+jj+2)*ldb:][:k]
			r3 := b[(j0+jj+3)*ldb:][:k]
			for kk := 0; kk < k; kk++ {
				d := (*[4]float32)(dst[kk*gemmNR+jj:])
				d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
			}
		}
		for ; jj < w; jj++ {
			for kk, v := range b[(j0+jj)*ldb:][:k] {
				dst[kk*gemmNR+jj] = v
			}
		}
	}
}

// packAT transposes A (stored K×M) into row-major M×K, in 32×32 tiles so
// both sides stay within a few cache lines per step.
func packAT(k, m int, a, at []float32) {
	const tile = 32
	for i0 := 0; i0 < m; i0 += tile {
		i1 := min(i0+tile, m)
		for k0 := 0; k0 < k; k0 += tile {
			k1 := min(k0+tile, k)
			for i := i0; i < i1; i++ {
				row := at[i*k:]
				for kk := k0; kk < k1; kk++ {
					row[kk] = a[kk*m+i]
				}
			}
		}
	}
}

// gemmGo2x4 runs the 2×4 register tile (c0[0:4], c1[0:4]) against
// columns [j, j+4) of a packed panel. B values
// are consumed as indexed loads rather than hoisted temporaries — eight
// accumulators plus four B temps spill on amd64's sixteen scalar float
// registers, and a spilled accumulator costs more than a reloaded L1-hot
// operand.
func gemmGo2x4(k int, a0, a1, panel []float32, j int, c0, c1 []float32, mode gemmMode) {
	a0, a1 = a0[:k], a1[:k]
	c0, c1 = c0[:4], c1[:4]
	var s00, s01, s02, s03 float32
	var s10, s11, s12, s13 float32
	if mode == gemmAccumulate {
		s00, s01, s02, s03 = c0[0], c0[1], c0[2], c0[3]
		s10, s11, s12, s13 = c1[0], c1[1], c1[2], c1[3]
	}
	for kk := 0; kk < k; kk++ {
		bp := (*[4]float32)(panel[kk*gemmNR+j:])
		av0, av1 := a0[kk], a1[kk]
		s00 += float32(av0 * bp[0])
		s01 += float32(av0 * bp[1])
		s02 += float32(av0 * bp[2])
		s03 += float32(av0 * bp[3])
		s10 += float32(av1 * bp[0])
		s11 += float32(av1 * bp[1])
		s12 += float32(av1 * bp[2])
		s13 += float32(av1 * bp[3])
	}
	if mode == gemmDotAdd {
		s00, s01, s02, s03 = c0[0]+s00, c0[1]+s01, c0[2]+s02, c0[3]+s03
		s10, s11, s12, s13 = c1[0]+s10, c1[1]+s11, c1[2]+s12, c1[3]+s13
	}
	c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
	c1[0], c1[1], c1[2], c1[3] = s10, s11, s12, s13
}

// gemmTileGo is the portable micro-kernel: it updates the mr×nr tile at c
// (row stride ldc; mr ≤ gemmMR, nr ≤ gemmNR) from mr rows of A at a (row
// stride lda, k values each) and one packed panel. Partial 2×4 sub-tiles
// — an odd last row, fewer than four real columns — run the same register
// tile against stand-in C rows, so C is never touched outside the tile
// and there is one inner loop to keep bit-exact, not one per edge shape.
// The panel's zero padding makes the stand-in columns harmless.
func gemmTileGo(k int, a []float32, lda int, panel, c []float32, ldc, mr, nr int, mode gemmMode) {
	var edge [2][4]float32
	for i := 0; i < mr; i += 2 {
		a0 := a[i*lda:][:k]
		a1, pair := a0, i+1 < mr
		if pair {
			a1 = a[(i+1)*lda:][:k]
		}
		for j := 0; j < nr; j += 4 {
			w := min(4, nr-j)
			if pair && w == 4 {
				gemmGo2x4(k, a0, a1, panel, j, c[i*ldc+j:], c[(i+1)*ldc+j:], mode)
				continue
			}
			e0, e1 := edge[0][:], edge[1][:]
			copy(e0, c[i*ldc+j:][:w])
			if pair {
				copy(e1, c[(i+1)*ldc+j:][:w])
			}
			gemmGo2x4(k, a0, a1, panel, j, e0, e1, mode)
			copy(c[i*ldc+j:][:w], e0)
			if pair {
				copy(c[(i+1)*ldc+j:][:w], e1)
			}
		}
	}
}

// gemmRowGrain is the row count of one parallel chunk: enough rows to
// carry gemmMinWork multiply-adds, rounded up to whole micro-tiles so
// that only the matrix's own last rows ever form a partial tile.
func gemmRowGrain(k, n int) int {
	g := parallel.Grain(k*n, gemmMinWork)
	return (g + gemmMR - 1) / gemmMR * gemmMR
}

// gemmTileRows computes rows [lo, hi) of C (m×n, row stride ldc) against
// row-major A (m×k) and packed panels pk, each panel kept hot across the
// row tiles. A full tile goes to the SIMD kernel, any other to the
// portable one.
func gemmTileRows(lo, hi, k, n, ldc int, a, pk, c []float32, mode gemmMode) {
	for p := 0; p < gemmPanels(n); p++ {
		j0 := p * gemmNR
		nr := min(gemmNR, n-j0)
		panel := pk[p*k*gemmNR : (p+1)*k*gemmNR]
		for i := lo; i < hi; i += gemmMR {
			mr := min(gemmMR, hi-i)
			if gemmTileAsm != nil && mr == gemmMR && nr == gemmNR && k > 0 {
				gemmTileAsm(k, &a[i*k], k, &panel[0], &c[i*ldc+j0], ldc, int(mode))
			} else {
				gemmTileGo(k, a[i*k:], k, panel, c[i*ldc+j0:], ldc, mr, nr, mode)
			}
		}
	}
}

// gemmPacked computes C (m×n) from A·B in the given mode, A row-major
// m×k, B row-major k×n, or stored n×k when bT, packed into scratch. The
// rows of C are sharded over the worker pool.
func gemmPacked(m, k, n int, a, b, c []float32, mode gemmMode, bT bool) {
	packed := getScratch(gemmPanels(n) * k * gemmNR)
	if bT {
		packBT(k, n, k, b, packed)
	} else {
		packB(k, n, n, b, packed)
	}
	parallel.For(m, gemmRowGrain(k, n), func(lo, hi int) {
		gemmTileRows(lo, hi, k, n, n, a, packed, c, mode)
	})
	scratch.Put(packed)
}

// Gemm computes C += A·B for row-major matrices: A is M×K, B is K×N,
// C is M×N.
func Gemm(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("nn: gemm size mismatch")
	}
	gemmPacked(m, k, n, a, b, c, gemmAccumulate, false)
}

// GemmTA computes C += Aᵀ·B where A is K×M (so Aᵀ is M×K), B is K×N,
// C is M×N.
func GemmTA(m, k, n int, a, b, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("nn: gemmTA size mismatch")
	}
	at := getScratch(m * k)
	packAT(k, m, a, at)
	gemmPacked(m, k, n, at, b, c, gemmAccumulate, false)
	scratch.Put(at)
}

// GemmTB computes C += A·Bᵀ where A is M×K, B is N×K (so Bᵀ is K×N),
// C is M×N: per element one dot product summed from zero over all of A's
// values, then a single add into C.
func GemmTB(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("nn: gemmTB size mismatch")
	}
	gemmPacked(m, k, n, a, b, c, gemmDotAdd, true)
}
