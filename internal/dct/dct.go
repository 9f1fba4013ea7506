// Package dct implements the 8-point Discrete Cosine Transform used by
// the JPEG-ACT compression pipeline (§III-D of the paper).
//
// Two implementations are provided:
//
//   - the scaled float32 AAN transform (aan.go), in place: the one float
//     transform. The codec runs AANForward8x8 / AANInverse8x8 and folds
//     the AAN scale factors into its quantizer tables; Forward8x8 /
//     Inverse8x8 apply the factors themselves and serve everything that
//     wants plain JPEG-normalized coefficients (the entropy analyses and
//     the synthetic-activation generator).
//   - the Loeffler–Ligtenberg–Moschytz fast DCT in Q13 fixed point
//     (fixed.go), the algorithm of the JPEG-ACT hardware (eight 8-point
//     units per CDU, 88 multipliers total), modelling its integer
//     datapath.
//
// The direct O(n²) DCT-II/DCT-III both are checked against lives in the
// package's tests.
//
// The JPEG normalization is
//
//	S[k] = c(k)/2 · Σ_{n=0..7} s[n]·cos((2n+1)kπ/16),  c(0)=1/√2, c(k≠0)=1
//
// which makes the 2D transform orthonormal, so Forward8x8 followed by
// Inverse8x8 is the identity up to rounding.
package dct

// BlockSize is the JPEG block edge length.
const BlockSize = 8

// Block is one 8×8 tile of values in row-major order.
type Block [64]float32

// Forward8x8 applies the JPEG-normalized 2D forward DCT to b in place:
// the AAN kernel, then its descale, one multiply per coefficient.
func Forward8x8(b *Block) {
	AANForward8x8(b)
	for i := range b {
		b[i] *= aanDescale2D32[i]
	}
}

// Inverse8x8 applies the 2D inverse DCT to JPEG-normalized coefficients
// in place: the AAN prescale, one multiply per coefficient, then the AAN
// kernel.
func Inverse8x8(b *Block) {
	for i := range b {
		b[i] = float32(float64(b[i]) * AANPrescale2D[i])
	}
	AANInverse8x8(b)
}

// Zigzag is the JPEG zigzag scan order: Zigzag[i] is the row-major block
// index of the i-th coefficient in scan order.
var Zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}
