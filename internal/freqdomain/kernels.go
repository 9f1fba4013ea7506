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
// worker count. Branches (the DC-only fast path, the zero skips) depend
// only on stored coefficient data, never on timing.

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

// DecodeDot inverse-transforms plane (n,c) into dst — the ideal
// reconstruction in pre-clamp CODE units, spatial layout, exactly the
// values the spatial restore sees before its code-grid rounding — and
// returns ⟨dy, x̃⟩ over the plane in activation units (x̃ unclamped: the
// one place the frequency path departs from the spatial restore, bounded
// by half a code unit per element), fused into the same block pass.
// Pairing it with AffineCodes gives a backward that inverse-transforms
// each block ONCE even though the affine coefficients depend on the dot:
// the caller holds the decoded codes in a scratch plane (hw floats per
// (n,c)) between the two passes. Blocks with no AC term skip the
// transform (flat DC), all-zero blocks skip the dot too.
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

// AffineCodes is the elementwise scale/add kernel over pre-decoded
// codes: dx[j] = a·dy[j] + cx·x[j] + bb over the (n,c) plane, with x[j]
// recovered from codes[j] (DecodeDot output for the same plane) by the
// spatial restore's exact code-grid rounding and inverse SFPR scale — so
// the x term is bit-identical to Reconstruct's, with the inverse
// transform already paid. dy and dx are full-tensor data slices.
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

// GradCoefColumns fills dst (H·W rows × C columns) with the JPEG-
// normalized forward DCT of batch element n of g, transposed: entry
// [b·64+i][oc] is coefficient i of block b of plane (n,oc). Row k pairs
// index-for-index with the plane's stored coefficients under Parseval, so
// CoefGemm's C += X̃·G computes every ⟨x̃_ic, dy_oc⟩ plane correlation in
// one pass. g must be aligned (H, W multiples of 8). Parallel over blocks, channels inner: block b
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
// element n, where row ic of X̃f is plane (n,ic)'s blocks in order — 64
// JPEG-normalized dequantized coefficients per block, scaled by the
// channel's inverse SFPR scale — and Gf the GradCoefColumns view of the
// gradient. X̃f is never materialized: the plane's quantized blocks ARE
// the sparsity structure, so the kernel walks only the stored nonzeros
// and issues one outC-wide saxpy per surviving coefficient. Row ic of
// wgT is owned by channel ic and accumulates in ascending-k order, serial
// per row — bit-identical at any worker count.
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
