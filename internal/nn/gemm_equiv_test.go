package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// The packed GEMM must be bit-identical to the saxpy references in
// gemm_ref_test.go — per C element all of them run the same ascending-k
// float32 op sequence — on the assembly kernel, on the portable kernel
// and at every worker count. Equality below is on the float bit pattern
// (Float32bits), so ±0 sign differences count as failures too.
//
// Neither bounds checks nor -race see into assembly, so the operands here
// are fenced instead: C sits between canary words that must come back
// unchanged, and A, B and the packed panel sit between NaNs, so a load
// from outside an operand poisons a result the oracle does not poison.

var testInf = float32(math.Inf(1))

// platformNaN is the NaN this platform's arithmetic generates (Inf − Inf
// at run time). Every NaN the tests inject is this one: which operand's
// payload survives NaN ∘ NaN is the compiler's choice of operand order,
// not part of the contract, and with one payload it cannot show.
func platformNaN() float32 { return testInf - testInf }

const canaryBits = 0xdeadbeef

// fenced returns a length-n slice (capacity n, so Go code overrunning it
// panics) in the middle of a larger allocation filled with fill.
func fenced(n int, fill float32) (inner, whole []float32) {
	const pad = 64
	whole = make([]float32, n+2*pad)
	for i := range whole {
		whole[i] = fill
	}
	return whole[pad : pad+n : pad+n], whole
}

func canariesIntact(t *testing.T, name string, whole []float32, n int) {
	t.Helper()
	pad := (len(whole) - n) / 2
	for i, v := range whole {
		if (i < pad || i >= pad+n) && math.Float32bits(v) != canaryBits {
			t.Fatalf("%s: canary at offset %d from C overwritten with %#x", name, i-pad, math.Float32bits(v))
		}
	}
}

func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %#x), reference %v (bits %#x)",
				name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func runAtWorkers(w int, f func()) {
	old := parallel.SetWorkers(w)
	defer parallel.SetWorkers(old)
	f()
}

// Operand flavours. dense has no zero anywhere; sparse scatters +0 and −0
// through A, keeps row 1 dense and makes row 2 all-zero (the zeros' ±0
// products are added like any other, so a −0 in C comes back +0); special
// adds −0, NaN and ±Inf to both operands, where a zero in A meets an Inf
// in B and 0·Inf = NaN must reach C.
type flavour int

const (
	dense flavour = iota
	sparse
	special
)

func (f flavour) String() string { return [...]string{"dense", "sparse", "special"}[f] }

// fillOperands fills logical A (m×k) and B (k×n), both row-major.
func fillOperands(f flavour, m, k, n int, a, b []float32, seed uint64) {
	r := tensor.NewRNG(seed)
	norm := func() float32 {
		for {
			if v := float32(r.Norm()); v != 0 {
				return v
			}
		}
	}
	negZero := float32(math.Copysign(0, -1))
	for i := range a {
		a[i] = norm()
		if f != dense {
			switch i % 11 {
			case 0:
				a[i] = 0
			case 5:
				a[i] = negZero
			}
		}
	}
	for i := range b {
		b[i] = norm()
	}
	if f != dense {
		if m > 1 {
			for kk := 0; kk < k; kk++ {
				if a[k+kk] == 0 {
					a[k+kk] = 0.25
				}
			}
		}
		if m > 2 {
			clear(a[2*k : 3*k])
		}
	}
	if f == special {
		a[k/2] = platformNaN()
		a[(1%m)*k] = testInf
		a[(3%m)*k+k-1] = -testInf
		b[n-1] = testInf
		b[(k-1)*n] = platformNaN()
		b[(k/2)*n+n/2] = -testInf
		b[(k/3)*n+n/3] = negZero
	}
}

// entry is one way into the driver: how it stores its operands and which
// reference it must equal.
type entry struct {
	name       string
	transA     bool // A handed over as K×M
	transB     bool // B handed over as N×K
	run        func(m, k, n int, a, b, c []float32)
	ref        func(m, k, n int, a, b, c []float32)
	overwrites bool // ignores the incoming C
}

var entries = []entry{
	{name: "Gemm", run: Gemm, ref: gemmSaxpy},
	{name: "GemmTA", transA: true, run: GemmTA, ref: gemmTASaxpy},
	{name: "GemmTB", transB: true, run: GemmTB, ref: gemmTBSaxpy},
	{name: "overwrite", overwrites: true,
		run: func(m, k, n int, a, b, c []float32) {
			l := newGemmLHS(m, k, a, false)
			l.mul(n, b, c, gemmOverwrite)
			l.release()
		},
		ref: func(m, k, n int, a, b, c []float32) {
			clear(c)
			gemmSaxpy(m, k, n, a, b, c)
		}},
}

func transpose(rows, cols int, src, dst []float32) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
}

func checkEntryPoints(t *testing.T, m, k, n int) {
	t.Helper()
	nan := platformNaN()
	aLog, bLog := make([]float32, m*k), make([]float32, k*n)
	a, _ := fenced(m*k, nan)
	b, _ := fenced(k*n, nan)
	c0 := make([]float32, m*n)
	r := tensor.NewRNG(99)
	for i := range c0 {
		c0[i] = float32(r.Norm()) // C += : incoming values must survive
	}
	c0[0] = float32(math.Copysign(0, -1))
	want := make([]float32, m*n)
	for _, f := range []flavour{dense, sparse, special} {
		fillOperands(f, m, k, n, aLog, bLog, uint64(77+m+k+n))
		for _, e := range entries {
			copy(a, aLog)
			if e.transA {
				transpose(m, k, aLog, a)
			}
			copy(b, bLog)
			if e.transB {
				transpose(k, n, bLog, b)
			}
			copy(want, c0)
			e.ref(m, k, n, a, b, want)
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				for _, portable := range []bool{false, true} {
					name := fmt.Sprintf("%s %dx%dx%d %v workers=%d portable=%v", e.name, m, k, n, f, w, portable)
					got, whole := fenced(m*n, math.Float32frombits(canaryBits))
					copy(got, c0)
					if e.overwrites {
						for i := range got {
							got[i] = nan
						}
					}
					run := func() { runAtWorkers(w, func() { e.run(m, k, n, a, b, got) }) }
					if portable {
						WithPortableGemm(run)
					} else {
						run()
					}
					bitsEqual(t, name, got, want)
					canariesIntact(t, name, whole, m*n)
				}
			}
		}
	}
}

// TestGemmBitIdenticalToSaxpy is the small-shape matrix: every row tail
// (m%4), column tail (n%16, and n below one 2×4 sub-tile), k below, at
// and above the old packing threshold, every entry point and mode.
func TestGemmBitIdenticalToSaxpy(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 9} {
		for _, n := range []int{1, 3, 15, 16, 17, 31, 32} {
			for _, k := range []int{1, 7, 8, 9, 64} {
				checkEntryPoints(t, m, k, n)
			}
		}
	}
}

// TestGemmBitIdenticalAcrossChunks uses shapes big enough to be split
// into several row chunks, so worker sharding and the last chunk's
// partial tile are in play at every m%4 and n%16.
func TestGemmBitIdenticalAcrossChunks(t *testing.T) {
	const k = 64
	for _, m := range []int{40, 41, 42, 43} {
		for _, n := range []int{512, 513, 527} {
			if chunks := (m + gemmRowGrain(k, n) - 1) / gemmRowGrain(k, n); chunks < 4 {
				t.Fatalf("%dx%dx%d runs in %d chunks: not a sharding test", m, k, n, chunks)
			}
			checkEntryPoints(t, m, k, n)
		}
	}
}

// tileOracle is the micro-kernel contract written as plainly as possible.
func tileOracle(k int, a []float32, lda int, panel, c []float32, ldc, mr, nr int, mode gemmMode) {
	for i := 0; i < mr; i++ {
		for j := 0; j < nr; j++ {
			var s float32
			if mode == gemmAccumulate {
				s = c[i*ldc+j]
			}
			for kk := 0; kk < k; kk++ {
				s += float32(a[i*lda+kk] * panel[kk*gemmNR+j])
			}
			if mode == gemmDotAdd {
				s = c[i*ldc+j] + s
			}
			c[i*ldc+j] = s
		}
	}
}

// TestGemmTileKernels calls both micro-kernels directly on a tile
// embedded in a wider C (canaries above, below, left and right of it),
// with A rows separated by NaNs and A and the panel fenced by NaNs: the
// portable kernel against the oracle at every partial-tile shape, and the
// assembly kernel against it on the full tile.
func TestGemmTileKernels(t *testing.T) {
	nan := platformNaN()
	canary := math.Float32frombits(canaryBits)
	const (
		ldc      = gemmNR + 5
		rowAbove = 1
		colLeft  = 2
		cLen     = (gemmMR + 2) * ldc
	)
	for _, k := range []int{1, 7, 8, 9, 64} {
		lda := k + 3
		for _, f := range []flavour{dense, sparse, special} {
			aLog, bLog := make([]float32, gemmMR*k), make([]float32, k*gemmNR)
			fillOperands(f, gemmMR, k, gemmNR, aLog, bLog, uint64(500+k))
			a, _ := fenced((gemmMR-1)*lda+k, nan)
			for i := 0; i < gemmMR; i++ {
				copy(a[i*lda:i*lda+k], aLog[i*k:])
			}
			for _, nr := range []int{1, 3, 4, 5, 15, 16} {
				panel, _ := fenced(k*gemmNR, nan)
				packB(k, nr, bLog[:k*nr], panel)
				// bLog read as k×nr is a different matrix per nr; any will do.
				for _, mr := range []int{1, 2, 3, 4} {
					for _, mode := range []gemmMode{gemmAccumulate, gemmDotAdd, gemmOverwrite} {
						seed := make([]float32, cLen)
						for i := range seed {
							seed[i] = canary
						}
						for i := 0; i < mr; i++ {
							for j := 0; j < nr; j++ {
								seed[(rowAbove+i)*ldc+colLeft+j] = float32(i) - 0.5*float32(j)
							}
						}
						tile := func(c []float32) []float32 { return c[rowAbove*ldc+colLeft:] }
						check := func(name string, kern func(c []float32)) {
							t.Helper()
							want := append([]float32(nil), seed...)
							tileOracle(k, a, lda, panel, tile(want), ldc, mr, nr, mode)
							got := append([]float32(nil), seed...)
							kern(tile(got))
							bitsEqual(t, fmt.Sprintf("%s k=%d %v mr=%d nr=%d mode=%d", name, k, f, mr, nr, mode), got, want)
						}
						check("gemmTileGo", func(c []float32) {
							gemmTileGo(k, a, lda, panel, c, ldc, mr, nr, mode)
						})
						if gemmTileAsm != nil && mr == gemmMR && nr == gemmNR {
							check("gemmTileAsm", func(c []float32) {
								gemmTileAsm(k, &a[0], lda, &panel[0], &c[0], ldc, int(mode))
							})
						}
					}
				}
			}
		}
	}
}

// TestGemmChunksAreWholeTiles pins the partitioning: at every conv shape
// of the bench model, through all three entry points, every full-width
// panel must meet ⌊m/4⌋ full row tiles — i.e. no parallel chunk but the
// matrix's own tail is shorter than the micro-tile. (With a one-row
// grain, which is what minWork/(k·n) gives for the big shapes, no full
// tile ever forms and the register kernel never runs.)
func TestGemmChunksAreWholeTiles(t *testing.T) {
	var fullTiles atomic.Int64
	old := gemmTileAsm
	gemmTileAsm = func(int, *float32, int, *float32, *float32, int, int) { fullTiles.Add(1) }
	defer func() { gemmTileAsm = old }()
	for _, s := range benchConvShapes {
		calls := []struct {
			name    string
			m, k, n int
			run     func(m, k, n int, a, b, c []float32)
		}{
			{"Gemm", s.outC, s.k2, s.spatial, Gemm},
			{"GemmTA", s.k2, s.outC, s.spatial, GemmTA},
			{"GemmTB", s.outC, s.spatial, s.k2, GemmTB},
		}
		for _, cl := range calls {
			a := make([]float32, cl.m*cl.k)
			for i := range a {
				a[i] = 1
			}
			b, c := make([]float32, cl.k*cl.n), make([]float32, cl.m*cl.n)
			for _, w := range []int{2, 3} {
				fullTiles.Store(0)
				runAtWorkers(w, func() { cl.run(cl.m, cl.k, cl.n, a, b, c) })
				if got, want := fullTiles.Load(), int64((cl.m/gemmMR)*(cl.n/gemmNR)); got != want {
					t.Errorf("%s %s %dx%dx%d workers=%d: %d full tiles, want %d (row grain %d)",
						s.name, cl.name, cl.m, cl.k, cl.n, w, got, want, gemmRowGrain(cl.k, cl.n))
				}
			}
		}
	}
}
