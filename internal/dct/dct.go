// Package dct implements the 8-point Discrete Cosine Transform used by
// the JPEG-ACT compression pipeline (§III-D of the paper).
//
// Three implementations are provided, one per consumer:
//
//   - AANForward8x8 / AANInverse8x8 (aan.go): the scaled float32 AAN
//     transform, in place — what the compression pipeline runs.
//   - LLM1D / LLMInverse1D: the Loeffler–Ligtenberg–Moschytz fast DCT with
//     11 multiplications, the algorithm the JPEG-ACT hardware uses (eight
//     8-point units per CDU, 88 multipliers total), in float64 for the
//     entropy analyses and the synthetic-activation generator.
//   - fixed-point variants in fixed.go that model the integer datapath of
//     the accelerator.
//
// The direct O(n²) DCT-II/DCT-III they are all checked against lives in
// the package's tests.
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

// LLM constants: sqrt(2)·cos(kπ/16) combinations from Loeffler et al.,
// the same constants used by the libjpeg integer DCT derived from LLM.
const (
	fix0_298631336 = 0.298631336
	fix0_390180644 = 0.390180644
	fix0_541196100 = 0.541196100
	fix0_765366865 = 0.765366865
	fix0_899976223 = 0.899976223
	fix1_175875602 = 1.175875602
	fix1_501321110 = 1.501321110
	fix1_847759065 = 1.847759065
	fix1_961570560 = 1.961570560
	fix2_053119869 = 2.053119869
	fix2_562915447 = 2.562915447
	fix3_072711026 = 3.072711026
)

// invSqrt8 = 1/(2√2): rescales one LLM pass to the JPEG normalization.
const invSqrt8 = 0.35355339059327373

// LLM1D computes the 8-point forward DCT with the LLM fast algorithm
// (11 multiplications before normalization).
func LLM1D(in, out *[8]float64) {
	tmp0 := in[0] + in[7]
	tmp7 := in[0] - in[7]
	tmp1 := in[1] + in[6]
	tmp6 := in[1] - in[6]
	tmp2 := in[2] + in[5]
	tmp5 := in[2] - in[5]
	tmp3 := in[3] + in[4]
	tmp4 := in[3] - in[4]

	// Even part.
	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2

	out[0] = (tmp10 + tmp11) * invSqrt8
	out[4] = (tmp10 - tmp11) * invSqrt8

	z1 := (tmp12 + tmp13) * fix0_541196100
	out[2] = (z1 + tmp13*fix0_765366865) * invSqrt8
	out[6] = (z1 - tmp12*fix1_847759065) * invSqrt8

	// Odd part.
	z1 = tmp4 + tmp7
	z2 := tmp5 + tmp6
	z3 := tmp4 + tmp6
	z4 := tmp5 + tmp7
	z5 := (z3 + z4) * fix1_175875602

	t4 := tmp4 * fix0_298631336
	t5 := tmp5 * fix2_053119869
	t6 := tmp6 * fix3_072711026
	t7 := tmp7 * fix1_501321110
	z1 = -z1 * fix0_899976223
	z2 = -z2 * fix2_562915447
	z3 = -z3 * fix1_961570560
	z4 = -z4 * fix0_390180644

	z3 += z5
	z4 += z5

	out[7] = (t4 + z1 + z3) * invSqrt8
	out[5] = (t5 + z2 + z4) * invSqrt8
	out[3] = (t6 + z2 + z3) * invSqrt8
	out[1] = (t7 + z1 + z4) * invSqrt8
}

// LLMInverse1D computes the 8-point inverse DCT with the LLM fast
// algorithm.
func LLMInverse1D(in, out *[8]float64) {
	// Even part.
	z2 := in[2]
	z3 := in[6]
	z1 := (z2 + z3) * fix0_541196100
	tmp2 := z1 - z3*fix1_847759065
	tmp3 := z1 + z2*fix0_765366865

	tmp0 := in[0] + in[4]
	tmp1 := in[0] - in[4]

	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2

	// Odd part.
	t0 := in[7]
	t1 := in[5]
	t2 := in[3]
	t3 := in[1]

	z1 = t0 + t3
	z2 = t1 + t2
	z3 = t0 + t2
	z4 := t1 + t3
	z5 := (z3 + z4) * fix1_175875602

	t0 *= fix0_298631336
	t1 *= fix2_053119869
	t2 *= fix3_072711026
	t3 *= fix1_501321110
	z1 = -z1 * fix0_899976223
	z2 = -z2 * fix2_562915447
	z3 = -z3 * fix1_961570560
	z4 = -z4 * fix0_390180644

	z3 += z5
	z4 += z5

	t0 += z1 + z3
	t1 += z2 + z4
	t2 += z2 + z3
	t3 += z1 + z4

	out[0] = (tmp10 + t3) * invSqrt8
	out[7] = (tmp10 - t3) * invSqrt8
	out[1] = (tmp11 + t2) * invSqrt8
	out[6] = (tmp11 - t2) * invSqrt8
	out[2] = (tmp12 + t1) * invSqrt8
	out[5] = (tmp12 - t1) * invSqrt8
	out[3] = (tmp13 + t0) * invSqrt8
	out[4] = (tmp13 - t0) * invSqrt8
}

// Forward8x8 applies the 2D forward DCT to an 8×8 block in place,
// implemented as two passes through the 1D LLM units with a transpose
// between them, exactly the two-pass structure of the hardware DCT unit.
// The LLM calls are concrete (not through a function value) so the 1D
// scratch stays on the stack — this runs once per block on the
// compression hot path and must not allocate.
func Forward8x8(b *Block) {
	var in, out [8]float64
	var tmp [64]float64
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			in[c] = float64(b[r*8+c])
		}
		LLM1D(&in, &out)
		copy(tmp[r*8:], out[:])
	}
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			in[r] = tmp[r*8+c]
		}
		LLM1D(&in, &out)
		for r := 0; r < 8; r++ {
			b[r*8+c] = float32(out[r])
		}
	}
}

// Inverse8x8 applies the 2D inverse DCT to an 8×8 block in place.
// Concrete LLM calls for the same zero-allocation reason as Forward8x8.
func Inverse8x8(b *Block) {
	var in, out [8]float64
	var tmp [64]float64
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			in[c] = float64(b[r*8+c])
		}
		LLMInverse1D(&in, &out)
		copy(tmp[r*8:], out[:])
	}
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			in[r] = tmp[r*8+c]
		}
		LLMInverse1D(&in, &out)
		for r := 0; r < 8; r++ {
			b[r*8+c] = float32(out[r])
		}
	}
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
