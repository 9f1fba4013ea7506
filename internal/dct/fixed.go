package dct

// Fixed-point LLM DCT modelling the integer datapath of the JPEG-ACT
// hardware DCT unit. Constants are represented in Q13 (CONST_BITS = 13)
// two's-complement fixed point, matching common hardware practice for the
// LLM structure; intermediate values fit comfortably in int32 for int8
// inputs, which is what the unit receives from the SFPR stage.

const constBits = 13

// invSqrt8 = 1/(2√2): rescales one LLM pass to the JPEG normalization.
const invSqrt8 = 0.35355339059327373

func fix(x float64) int32 { return int32(float64(x*(1<<constBits)) + 0.5) }

var (
	ifix0_298631336 = fix(0.298631336)
	ifix0_390180644 = fix(0.390180644)
	ifix0_541196100 = fix(0.541196100)
	ifix0_765366865 = fix(0.765366865)
	ifix0_899976223 = fix(0.899976223)
	ifix1_175875602 = fix(1.175875602)
	ifix1_501321110 = fix(1.501321110)
	ifix1_847759065 = fix(1.847759065)
	ifix1_961570560 = fix(1.961570560)
	ifix2_053119869 = fix(2.053119869)
	ifix2_562915447 = fix(2.562915447)
	ifix3_072711026 = fix(3.072711026)
	// 1/(2*sqrt(2)) in Q13 for per-pass renormalization.
	ifixInvSqrt8 = fix(invSqrt8)
)

func descale(x int32, n uint) int32 {
	// Round-to-nearest shift right, the RTL descaling idiom.
	return (x + (1 << (n - 1))) >> n
}

func mul(a, b int32) int32 { return int32((int64(a) * int64(b)) >> constBits) }

// FixedForward1D computes the forward LLM DCT on int32 samples with Q13
// arithmetic, producing outputs in the JPEG normalization (matching the
// O(n²) reference to within integer rounding).
func FixedForward1D(in, out *[8]int32) {
	tmp0 := in[0] + in[7]
	tmp7 := in[0] - in[7]
	tmp1 := in[1] + in[6]
	tmp6 := in[1] - in[6]
	tmp2 := in[2] + in[5]
	tmp5 := in[2] - in[5]
	tmp3 := in[3] + in[4]
	tmp4 := in[3] - in[4]

	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2

	out[0] = mul(tmp10+tmp11, ifixInvSqrt8)
	out[4] = mul(tmp10-tmp11, ifixInvSqrt8)

	z1 := mul(tmp12+tmp13, ifix0_541196100)
	out[2] = mul(z1+mul(tmp13, ifix0_765366865), ifixInvSqrt8)
	out[6] = mul(z1-mul(tmp12, ifix1_847759065), ifixInvSqrt8)

	z1 = tmp4 + tmp7
	z2 := tmp5 + tmp6
	z3 := tmp4 + tmp6
	z4 := tmp5 + tmp7
	z5 := mul(z3+z4, ifix1_175875602)

	t4 := mul(tmp4, ifix0_298631336)
	t5 := mul(tmp5, ifix2_053119869)
	t6 := mul(tmp6, ifix3_072711026)
	t7 := mul(tmp7, ifix1_501321110)
	z1 = -mul(z1, ifix0_899976223)
	z2 = -mul(z2, ifix2_562915447)
	z3 = -mul(z3, ifix1_961570560)
	z4 = -mul(z4, ifix0_390180644)

	z3 += z5
	z4 += z5

	out[7] = mul(t4+z1+z3, ifixInvSqrt8)
	out[5] = mul(t5+z2+z4, ifixInvSqrt8)
	out[3] = mul(t6+z2+z3, ifixInvSqrt8)
	out[1] = mul(t7+z1+z4, ifixInvSqrt8)
}

// FixedInverse1D computes the inverse LLM DCT on int32 samples with Q13
// arithmetic (matching the O(n²) reference to within integer rounding).
func FixedInverse1D(in, out *[8]int32) {
	z2 := in[2]
	z3 := in[6]
	z1 := mul(z2+z3, ifix0_541196100)
	tmp2 := z1 - mul(z3, ifix1_847759065)
	tmp3 := z1 + mul(z2, ifix0_765366865)

	tmp0 := in[0] + in[4]
	tmp1 := in[0] - in[4]

	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2

	t0 := in[7]
	t1 := in[5]
	t2 := in[3]
	t3 := in[1]

	z1 = t0 + t3
	z2 = t1 + t2
	z3 = t0 + t2
	z4 := t1 + t3
	z5 := mul(z3+z4, ifix1_175875602)

	t0 = mul(t0, ifix0_298631336)
	t1 = mul(t1, ifix2_053119869)
	t2 = mul(t2, ifix3_072711026)
	t3 = mul(t3, ifix1_501321110)
	z1 = -mul(z1, ifix0_899976223)
	z2 = -mul(z2, ifix2_562915447)
	z3 = -mul(z3, ifix1_961570560)
	z4 = -mul(z4, ifix0_390180644)

	z3 += z5
	z4 += z5

	t0 += z1 + z3
	t1 += z2 + z4
	t2 += z2 + z3
	t3 += z1 + z4

	out[0] = mul(tmp10+t3, ifixInvSqrt8)
	out[7] = mul(tmp10-t3, ifixInvSqrt8)
	out[1] = mul(tmp11+t2, ifixInvSqrt8)
	out[6] = mul(tmp11-t2, ifixInvSqrt8)
	out[2] = mul(tmp12+t1, ifixInvSqrt8)
	out[5] = mul(tmp12-t1, ifixInvSqrt8)
	out[3] = mul(tmp13+t0, ifixInvSqrt8)
	out[4] = mul(tmp13-t0, ifixInvSqrt8)
}

// IntBlock is an 8×8 block of integer samples as seen by the hardware
// datapath (int8 activations widened to int32 working precision).
type IntBlock [64]int32

// FixedForward8x8 applies the 2D fixed-point forward DCT in place.
// To preserve fractional precision between the two passes the samples are
// pre-scaled into Q(passBits) fixed point and descaled at the end,
// mirroring the pipeline register widths of the RTL.
func FixedForward8x8(b *IntBlock) {
	fixed2D(b, FixedForward1D)
}

// FixedInverse8x8 applies the 2D fixed-point inverse DCT in place.
func FixedInverse8x8(b *IntBlock) {
	fixed2D(b, FixedInverse1D)
}

const passBits = 6

func fixed2D(b *IntBlock, f func(in, out *[8]int32)) {
	var in, out [8]int32
	var tmp [64]int32
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			in[c] = b[r*8+c] << passBits
		}
		f(&in, &out)
		copy(tmp[r*8:], out[:])
	}
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			in[r] = tmp[r*8+c]
		}
		f(&in, &out)
		for r := 0; r < 8; r++ {
			b[r*8+c] = descale(out[r], passBits)
		}
	}
}
