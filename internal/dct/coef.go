package dct

// Coefficient-layout helpers for frequency-domain compute: the scale
// bookkeeping that lets downstream kernels work on JPEG-normalized
// coefficients without running an inverse transform first.
//
// The JPEG-normalized 2D DCT is orthonormal: writing the transform as
// S[i] = Σ_j x[j]·B[i][j] with the basis below, Σ_j B[i][j]·B[k][j] = δik.
// Two consequences carry the whole frequency-domain restore path:
//
//   - Parseval: ⟨x, y⟩ = ⟨S(x), S(y)⟩ — an inner product against a saved
//     activation can be taken in the coefficient domain, visiting only
//     the nonzero (post-quantization) coefficients;
//   - the DC sum identity: B[0][j] = 1/8 for all j, so a block's spatial
//     sum is 8·S[0] — per-channel statistics need only the DC terms.

import "math"

// UnitScale2D is the identity per-coefficient scale. Folding it into a
// quantizer table (quant.(*DQT).FoldedInverse(shift, &dct.UnitScale2D))
// yields plain JPEG-normalized dequantized coefficients, with no AAN
// pre/descale applied — the representation the frequency-domain kernels
// consume directly.
var UnitScale2D = func() (u [64]float64) {
	for i := range u {
		u[i] = 1
	}
	return
}()

// NormBasis2D[i][j] is the JPEG-normalized 2D DCT basis: coefficient
// i = 8u+v of a block x (row-major j = 8r+c) is Σ_j x[j]·NormBasis2D[i][j],
// and synthesis is the transpose of the same matrix. float32 so the
// selective (nonzero-coefficient-only) dot kernels run without a
// float64 bounce. Built self-contained (not from dct.go's cosTable,
// which an init() fills later in package init order).
var NormBasis2D = func() (b [64][64]float32) {
	var ct [8][8]float64 // c(k)/2 · cos((2n+1)kπ/16)
	for k := 0; k < 8; k++ {
		ck := 1.0
		if k == 0 {
			ck = 1 / math.Sqrt2
		}
		for n := 0; n < 8; n++ {
			ct[k][n] = ck / 2 * math.Cos(float64(2*n+1)*float64(k)*math.Pi/16)
		}
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			for r := 0; r < 8; r++ {
				for c := 0; c < 8; c++ {
					b[u*8+v][r*8+c] = float32(ct[u][r] * ct[v][c])
				}
			}
		}
	}
	return
}()

// AANDescale2D32 is AANDescale2D as float32, for kernels that normalize
// raw AANForward8x8 outputs coefficient-by-coefficient without folding
// the descale into a quantizer table.
var AANDescale2D32 = func() (d [64]float32) {
	// aanFactors has a static initializer, so dependency-ordered variable
	// initialization makes it usable here (AANDescale2D itself is only
	// filled by an init() that may run later).
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			d[r*8+c] = float32(1 / (8 * aanFactors[r] * aanFactors[c]))
		}
	}
	return
}()
