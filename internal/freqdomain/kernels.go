package freqdomain

import (
	"jpegact/internal/dct"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// Coefficient-domain kernels. All of them require Aligned() — each 8×8
// block inside one (n,c) plane — and all keep the repo's determinism
// contract: within one output element (or one accumulated sum) the
// float op order is fixed and serial; parallelism only shards BETWEEN
// independent channels/columns, so results are bit-identical at any
// worker count. Branches (the selective-vs-full DCT switch, the DC-only
// fast path) depend only on stored coefficient data, never on timing.

// selectiveNNZ is the nonzero-count threshold at which the Parseval dot
// switches from per-nonzero basis dots (64 MACs each, four-way split so
// the adds pipeline instead of serializing on one accumulator) to one
// full AAN forward DCT of the dy tile plus a sparse pairing. The AAN
// butterfly amortizes far better than independent basis dots — its adds
// overlap across lanes — so the crossover sits at just a handful of
// nonzeros; only near-empty blocks win by dotting bases directly.
const selectiveNNZ = 6

// blocksWide / blocksHigh give the per-plane block grid.
func (p *Plane) blocksWide() int { return p.Info.Orig.W / dct.BlockSize }
func (p *Plane) blocksHigh() int { return p.Info.Orig.H / dct.BlockSize }

// planeBlocks returns the index of plane (n,c)'s first block and the
// per-plane block count.
func (p *Plane) planeBlocks(n, c int) (first, count int) {
	sh := p.Info.Orig
	per := p.blocksHigh() * p.blocksWide()
	return (n*sh.C + c) * per, per
}

// clampCode rounds a reconstructed spatial value to the int8 SFPR code
// grid, mirroring compress's reconstruction exactly so restored values
// match the spatial path bit for bit.
func clampCode(v float32) float32 { return float32(quant.RoundSat32(v)) }

// SumPlane returns Σ x̃ over the (n,c) plane using only the DC terms:
// each block's spatial sum is DCToSum·DC (dct coefficient-layout
// identity), so the whole sum costs one multiply-add per block. x̃ is
// the ideal dequantized reconstruction (no code-grid clamp).
func (p *Plane) SumPlane(n, c int) float64 {
	inv := p.InvScale(c)
	if inv == 0 {
		return 0
	}
	first, count := p.planeBlocks(n, c)
	var sum float64
	for b := first; b < first+count; b++ {
		if q := p.Blocks[b][0]; q != 0 {
			sum += float64(float32(q) * p.dqNorm[0])
		}
	}
	return sum * dct.DCToSum * float64(inv)
}

// DotPlane returns ⟨dy, x̃⟩ over the (n,c) plane, where dy is the full
// gradient tensor's data (same shape as the saved activation) and x̃ is
// the ideal dequantized reconstruction in activation units (no code
// clamp — the one place the frequency path departs from the spatial
// restore, bounded by half a code unit per element). Parseval moves the
// dot to the coefficient domain, where all-zero blocks are skipped
// outright and sparse blocks pay one 64-MAC basis dot per nonzero
// coefficient.
func (p *Plane) DotPlane(dy []float32, n, c int) float64 {
	inv := p.InvScale(c)
	if inv == 0 {
		return 0
	}
	sh := p.Info.Orig
	bw, bh := p.blocksWide(), p.blocksHigh()
	first, _ := p.planeBlocks(n, c)
	dyBase := (n*sh.C + c) * sh.H * sh.W
	var total float64
	var tile dct.Block
	for br := 0; br < bh; br++ {
		for bc := 0; bc < bw; bc++ {
			q := &p.Blocks[first+br*bw+bc]
			nnz := 0
			for i := 0; i < 64 && nnz <= selectiveNNZ; i++ {
				if q[i] != 0 {
					nnz++
				}
			}
			if nnz == 0 {
				continue
			}
			for r := 0; r < 8; r++ {
				off := dyBase + (br*8+r)*sh.W + bc*8
				// Array-pointer assignment: an 8-float copy() is a memmove
				// call, and the call overhead dwarfs the 32-byte move.
				*(*[8]float32)(tile[r*8 : r*8+8]) = *(*[8]float32)(dy[off : off+8])
			}
			var dot float32
			if nnz <= selectiveNNZ {
				for i := 0; i < 64; i++ {
					qi := q[i]
					if qi == 0 {
						continue
					}
					// Four independent partial sums: a single accumulator
					// would serialize 64 adds on the FP latency chain.
					basis := &dct.NormBasis2D[i]
					var s0, s1, s2, s3 float32
					for j := 0; j < 64; j += 4 {
						s0 += tile[j] * basis[j]
						s1 += tile[j+1] * basis[j+1]
						s2 += tile[j+2] * basis[j+2]
						s3 += tile[j+3] * basis[j+3]
					}
					dot += ((s0 + s1) + (s2 + s3)) * (float32(qi) * p.dqNorm[i])
				}
			} else {
				dct.AANForward8x8(&tile)
				for i := 0; i < 64; i++ {
					qi := q[i]
					if qi == 0 {
						continue
					}
					dot += (tile[i] * dct.AANDescale2D32[i]) * (float32(qi) * p.dqNorm[i])
				}
			}
			total += float64(dot)
		}
	}
	return total * float64(inv)
}

// AffineRestorePlane is the coefficient-domain elementwise scale/add
// kernel: dx[j] = a·dy[j] + cx·x[j] + bb over the (n,c) plane, with x
// the EXACT restored activation (dequantize → inverse AAN DCT → code
// clamp → inverse SFPR scale, bit-identical to the spatial restore) —
// but produced one block at a time inside the fused loop, never
// materialized as a tensor. Blocks whose AC coefficients are all zero
// skip the inverse transform entirely: their spatial value is the
// (prescaled) DC constant. dy and dx are full-tensor data slices.
func (p *Plane) AffineRestorePlane(dy, dx []float32, n, c int, a, cx, bb float32) {
	sh := p.Info.Orig
	bw, bh := p.blocksWide(), p.blocksHigh()
	first, _ := p.planeBlocks(n, c)
	inv := p.InvScale(c)
	cs := cx * inv // code units → the cx·x term
	base := (n*sh.C + c) * sh.H * sh.W
	var blk dct.Block
	for br := 0; br < bh; br++ {
		for bc := 0; bc < bw; bc++ {
			q := &p.Blocks[first+br*bw+bc]
			acZero := true
			for i := 1; i < 64; i++ {
				if q[i] != 0 {
					acZero = false
					break
				}
			}
			if acZero {
				// Inverse of a DC-only prescaled block is flat: every
				// spatial sample equals the prescaled DC value.
				xc := cs*clampCode(float32(q[0])*p.dqAAN[0]) + bb
				for r := 0; r < 8; r++ {
					off := base + (br*8+r)*sh.W + bc*8
					dyRow := dy[off : off+8]
					dxRow := dx[off : off+8]
					for j := 0; j < 8; j++ {
						dxRow[j] = a*dyRow[j] + xc
					}
				}
				continue
			}
			for i := 0; i < 64; i++ {
				blk[i] = float32(q[i]) * p.dqAAN[i]
			}
			dct.AANInverse8x8(&blk)
			for r := 0; r < 8; r++ {
				off := base + (br*8+r)*sh.W + bc*8
				dyRow := dy[off : off+8]
				dxRow := dx[off : off+8]
				for j := 0; j < 8; j++ {
					dxRow[j] = a*dyRow[j] + cs*clampCode(blk[r*8+j]) + bb
				}
			}
		}
	}
}

// DecodeDot inverse-transforms plane (n,c) into dst — the ideal
// reconstruction in pre-clamp CODE units, spatial layout, exactly the
// values AffineRestorePlane sees before its code-grid rounding — and
// returns ⟨dy, x̃⟩ over the plane in activation units, fused into the
// same block pass. Pairing it with AffineCodes gives a backward that
// inverse-transforms each block ONCE even though the affine
// coefficients depend on the dot: the caller holds the decoded codes in
// a scratch plane (hw floats per (n,c)) between the two passes. Blocks
// with no AC term skip the transform (flat DC), all-zero blocks skip
// the dot too.
func (p *Plane) DecodeDot(dy []float32, n, c int, dst []float32) float64 {
	sh := p.Info.Orig
	hw := sh.H * sh.W
	if len(dst) < hw {
		panic("freqdomain: DecodeDot dst too small")
	}
	inv := p.InvScale(c)
	bw, bh := p.blocksWide(), p.blocksHigh()
	first, _ := p.planeBlocks(n, c)
	dyBase := (n*sh.C + c) * hw
	var total float64
	var blk dct.Block
	for br := 0; br < bh; br++ {
		for bc := 0; bc < bw; bc++ {
			q := &p.Blocks[first+br*bw+bc]
			acZero := true
			for i := 1; i < 64; i++ {
				if q[i] != 0 {
					acZero = false
					break
				}
			}
			if acZero {
				xc := float32(q[0]) * p.dqAAN[0]
				var s0, s1, s2, s3 float32
				for r := 0; r < 8; r++ {
					off := (br*8+r)*sh.W + bc*8
					*(*[8]float32)(dst[off : off+8]) = [8]float32{xc, xc, xc, xc, xc, xc, xc, xc}
					if q[0] != 0 {
						dyRow := dy[dyBase+off : dyBase+off+8]
						s0 += dyRow[0] + dyRow[4]
						s1 += dyRow[1] + dyRow[5]
						s2 += dyRow[2] + dyRow[6]
						s3 += dyRow[3] + dyRow[7]
					}
				}
				total += float64(((s0 + s1) + (s2 + s3)) * xc)
				continue
			}
			for i := 0; i < 64; i++ {
				blk[i] = float32(q[i]) * p.dqAAN[i]
			}
			dct.AANInverse8x8(&blk)
			var s0, s1, s2, s3 float32
			for r := 0; r < 8; r++ {
				off := (br*8+r)*sh.W + bc*8
				row := (*[8]float32)(blk[r*8 : r*8+8])
				*(*[8]float32)(dst[off : off+8]) = *row
				dyRow := (*[8]float32)(dy[dyBase+off : dyBase+off+8])
				s0 += dyRow[0]*row[0] + dyRow[4]*row[4]
				s1 += dyRow[1]*row[1] + dyRow[5]*row[5]
				s2 += dyRow[2]*row[2] + dyRow[6]*row[6]
				s3 += dyRow[3]*row[3] + dyRow[7]*row[7]
			}
			total += float64((s0 + s1) + (s2 + s3))
		}
	}
	return total * float64(inv)
}

// AffineCodes is AffineRestorePlane over pre-decoded codes: dx[j] =
// a·dy[j] + cx·x[j] + bb, with x[j] recovered from codes[j] (DecodeDot
// output for the same plane) by the spatial restore's exact code-grid
// rounding — so the x term is bit-identical to AffineRestorePlane's,
// with the inverse transform already paid.
func (p *Plane) AffineCodes(dy, dx []float32, n, c int, codes []float32, a, cx, bb float32) {
	sh := p.Info.Orig
	hw := sh.H * sh.W
	cs := cx * p.InvScale(c)
	base := (n*sh.C + c) * hw
	dyP := dy[base : base+hw]
	dxP := dx[base : base+hw]
	codes = codes[:hw]
	for j := range codes {
		dxP[j] = a*dyP[j] + cs*clampCode(codes[j]) + bb
	}
}

// CoefficientRows fills dst (C rows × H·W columns) with the frequency-
// layout view of batch element n: row ic is plane (n,ic)'s blocks in
// order, 64 JPEG-normalized dequantized coefficients per block, scaled
// by the channel's inverse SFPR scale. The rows pair index-for-index
// with GradCoefColumns' rows under Parseval, so a GEMM between them is
// the spatial correlation ⟨dy_oc, x̃_ic⟩ summed over the plane — and the
// post-quantization zeros stay zero, which is what the guarded GEMM
// micro-kernels' zero-skip exploits. Parallel over channels (each row
// is written by one worker).
func (p *Plane) CoefficientRows(n int, dst []float32) {
	sh := p.Info.Orig
	rowLen := sh.H * sh.W
	if len(dst) < sh.C*rowLen {
		panic("freqdomain: CoefficientRows dst too small")
	}
	parallel.For(sh.C, parallel.Grain(rowLen, 4096), func(clo, chi int) {
		for ic := clo; ic < chi; ic++ {
			row := dst[ic*rowLen : (ic+1)*rowLen]
			for j := range row {
				row[j] = 0
			}
			inv := p.InvScale(ic)
			if inv == 0 {
				continue
			}
			first, count := p.planeBlocks(n, ic)
			for b := 0; b < count; b++ {
				q := &p.Blocks[first+b]
				out := row[b*64 : (b+1)*64]
				for i := 0; i < 64; i++ {
					if qi := q[i]; qi != 0 {
						out[i] = float32(qi) * p.dqNorm[i] * inv
					}
				}
			}
		}
	})
}

// GradCoefColumns fills dst (H·W rows × C columns) with the JPEG-
// normalized forward DCT of batch element n of g, transposed: entry
// [b·64+i][oc] is coefficient i of block b of plane (n,oc). Column oc's
// k index matches CoefficientRows' row layout, so C += X̃·G computes
// every ⟨x̃_ic, dy_oc⟩ plane correlation in one GEMM. g must be aligned
// (H, W multiples of 8). Parallel over blocks, channels inner: block b
// owns dst rows [b·64, (b+1)·64) — a slab that stays cache-resident
// while all C channels of the block transform into it, where the
// channel-outer order would stride every store across the full matrix.
// Each dst element is written exactly once, by one worker.
func GradCoefColumns(g *tensor.Tensor, n int, dst []float32) {
	sh := g.Shape
	if sh.H%dct.BlockSize != 0 || sh.W%dct.BlockSize != 0 {
		panic("freqdomain: GradCoefColumns requires 8-aligned H and W")
	}
	hw := sh.H * sh.W
	if len(dst) < hw*sh.C {
		panic("freqdomain: GradCoefColumns dst too small")
	}
	bw, bh := sh.W/dct.BlockSize, sh.H/dct.BlockSize
	parallel.For(bh*bw, parallel.Grain(2*64*sh.C, 4096), func(blo, bhi int) {
		var tile dct.Block
		for b := blo; b < bhi; b++ {
			br, bc := b/bw, b%bw
			kBase := b * 64
			for oc := 0; oc < sh.C; oc++ {
				base := (n*sh.C + oc) * hw
				for r := 0; r < 8; r++ {
					off := base + (br*8+r)*sh.W + bc*8
					*(*[8]float32)(tile[r*8 : r*8+8]) = *(*[8]float32)(g.Data[off : off+8])
				}
				dct.AANForward8x8(&tile)
				for i := 0; i < 64; i++ {
					dst[(kBase+i)*sh.C+oc] = tile[i] * dct.AANDescale2D32[i]
				}
			}
		}
	})
}

// CoefGemm accumulates wgT (C rows × outC columns) += X̃f·Gf for batch
// element n, where X̃f is the CoefficientRows view of the plane and Gf
// the GradCoefColumns view of the gradient — without materializing X̃f.
// The guarded GEMM micro-kernels skip zero A elements one branch at a
// time but still scan the full k range per panel; here the plane's
// quantized blocks ARE the sparsity structure, so the kernel walks only
// the stored nonzeros and issues one outC-wide saxpy per surviving
// coefficient. Row ic of wgT is owned by channel ic and accumulates in
// ascending-k order, serial per row — bit-identical at any worker count.
func (p *Plane) CoefGemm(n, outC int, gf, wgT []float32) {
	sh := p.Info.Orig
	hw := sh.H * sh.W
	if len(gf) < hw*outC {
		panic("freqdomain: CoefGemm gf too small")
	}
	if len(wgT) < sh.C*outC {
		panic("freqdomain: CoefGemm wgT too small")
	}
	parallel.For(sh.C, parallel.Grain(hw*outC/16, 1<<14), func(clo, chi int) {
		for ic := clo; ic < chi; ic++ {
			inv := p.InvScale(ic)
			if inv == 0 {
				continue
			}
			crow := wgT[ic*outC : (ic+1)*outC]
			first, count := p.planeBlocks(n, ic)
			// Nonzeros are batched four at a time so each quad costs one
			// pass of crow loads and stores instead of four; k stays
			// ascending (quads fill in coefficient order, the tail runs
			// last), so the grouping depends only on stored data.
			var avs [4]float32
			var rows [4][]float32
			cnt := 0
			for b := 0; b < count; b++ {
				q := &p.Blocks[first+b]
				kBase := b * 64
				for i := 0; i < 64; i++ {
					qi := q[i]
					if qi == 0 {
						continue
					}
					avs[cnt] = float32(qi) * p.dqNorm[i] * inv
					rows[cnt] = gf[(kBase+i)*outC : (kBase+i+1)*outC]
					cnt++
					if cnt < 4 {
						continue
					}
					cnt = 0
					a0, a1, a2, a3 := avs[0], avs[1], avs[2], avs[3]
					g0, g1, g2, g3 := rows[0], rows[1], rows[2], rows[3]
					for j := range crow {
						crow[j] += (a0*g0[j] + a1*g1[j]) + (a2*g2[j] + a3*g3[j])
					}
				}
			}
			for t := 0; t < cnt; t++ {
				av, grow := avs[t], rows[t]
				for j := range crow {
					crow[j] += av * grow[j]
				}
			}
		}
	})
}
