package dct

// AAN (Arai–Agui–Nakajima) scaled 8-point DCT, the algorithm behind
// libjpeg's fast float DCT (jfdctflt/jidctflt). One 1D pass costs 5
// multiplies and 29 adds versus 11 multiplies for the LLM structure of
// the hardware unit (fixed.go), because the AAN factorization leaves a
// diagonal scale matrix unapplied: the raw forward output is
//
//	A[k] = S[k] · 2√2 · aan[k]          (1D)
//	A2D[i] = S2D[i] · 8 · aan[r] · aan[c]  (2D, i = 8r+c)
//
// where S is the JPEG-normalized DCT (the package comment) and aan[k] are
// the AAN scale factors below. A JPEG codec never pays for the missing
// scales: they fold into the quantizer tables (quant.FoldedForward /
// quant.FoldedInverse), exactly as libjpeg folds them into fdtbl/dtbl,
// so quantizing costs one multiply per coefficient. Forward8x8 and
// Inverse8x8 pay that multiply for the scales alone.
//
// Float64 variants of the 1D kernels are the algorithmic reference in
// aan_test.go (pinned there to the O(n²) DCT within float64 rounding).

// aanFactors are the AAN per-frequency scale factors:
// aan[0] = 1, aan[k] = cos(kπ/16)·√2 for k ≥ 1.
var aanFactors = [8]float64{
	1.0,
	1.387039845322148,
	1.306562964876377,
	1.175875602419359,
	1.0,
	0.785694958387102,
	0.541196100146197,
	0.275899379282943,
}

var (
	// AANDescale2D[i] converts a raw 2D AAN forward coefficient (i = 8r+c)
	// to the JPEG normalization; fold it (divided by the DQT entry) into
	// the forward quantizer table.
	AANDescale2D [64]float64
	// AANPrescale2D[i] prepares a JPEG-normalized 2D coefficient for
	// AANInverse8x8; fold it (times the DQT entry) into the dequantizer
	// table.
	AANPrescale2D [64]float64
)

func init() {
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			AANDescale2D[r*8+c] = 1 / (8 * aanFactors[r] * aanFactors[c])
			AANPrescale2D[r*8+c] = aanFactors[r] * aanFactors[c] / 8
		}
	}
}

// aanDescale2D32 is AANDescale2D as float32: Forward8x8 normalizes raw
// AANForward8x8 outputs with it, one multiply per coefficient.
var aanDescale2D32 = func() (d [64]float32) {
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

// AAN rotation constants (float64 and float32 copies of the same values,
// the jfdctflt/jidctflt constant set).
const (
	aan0_382683433 = 0.382683433
	aan0_541196100 = 0.541196100
	aan0_707106781 = 0.707106781
	aan1_306562965 = 1.306562965
	aan1_082392200 = 1.082392200
	aan1_414213562 = 1.414213562
	aan1_847759065 = 1.847759065
	aan2_613125930 = 2.613125930
)

// aanForward8 is the float32 production copy of AAN1D. It takes its
// eight samples and returns its eight outputs by value — in registers
// under Go's register ABI — so one body serves both passes of the 2D
// drivers: a row at stride 1 and a column at stride 8, read from and
// stored straight back into the block with no staging vector.
func aanForward8(in0, in1, in2, in3, in4, in5, in6, in7 float32) (o0, o1, o2, o3, o4, o5, o6, o7 float32) {
	tmp0 := in0 + in7
	tmp7 := in0 - in7
	tmp1 := in1 + in6
	tmp6 := in1 - in6
	tmp2 := in2 + in5
	tmp5 := in2 - in5
	tmp3 := in3 + in4
	tmp4 := in3 - in4

	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2

	o0 = tmp10 + tmp11
	o4 = tmp10 - tmp11

	z1 := float32((tmp12 + tmp13) * float32(aan0_707106781))
	o2 = tmp13 + z1
	o6 = tmp13 - z1

	tmp10 = tmp4 + tmp5
	tmp11 = tmp5 + tmp6
	tmp12 = tmp6 + tmp7

	z5 := float32((tmp10 - tmp12) * float32(aan0_382683433))
	z2 := float32(float32(aan0_541196100)*tmp10) + z5
	z4 := float32(float32(aan1_306562965)*tmp12) + z5
	z3 := float32(tmp11 * float32(aan0_707106781))

	z11 := tmp7 + z3
	z13 := tmp7 - z3

	o5 = z13 + z2
	o3 = z13 - z2
	o1 = z11 + z4
	o7 = z11 - z4
	return
}

func aanInverse8(in0, in1, in2, in3, in4, in5, in6, in7 float32) (o0, o1, o2, o3, o4, o5, o6, o7 float32) {
	tmp0 := in0
	tmp1 := in2
	tmp2 := in4
	tmp3 := in6

	tmp10 := tmp0 + tmp2
	tmp11 := tmp0 - tmp2
	tmp13 := tmp1 + tmp3
	tmp12 := float32((tmp1-tmp3)*float32(aan1_414213562)) - tmp13

	tmp0 = tmp10 + tmp13
	tmp3 = tmp10 - tmp13
	tmp1 = tmp11 + tmp12
	tmp2 = tmp11 - tmp12

	tmp4 := in1
	tmp5 := in3
	tmp6 := in5
	tmp7 := in7

	z13 := tmp6 + tmp5
	z10 := tmp6 - tmp5
	z11 := tmp4 + tmp7
	z12 := tmp4 - tmp7

	tmp7 = z11 + z13
	tmp11 = float32((z11 - z13) * float32(aan1_414213562))

	z5 := float32((z10 + z12) * float32(aan1_847759065))
	tmp10 = float32(float32(aan1_082392200)*z12) - z5
	tmp12 = float32(-float32(aan2_613125930)*z10) + z5

	tmp6 = tmp12 - tmp7
	tmp5 = tmp11 - tmp6
	tmp4 = tmp10 + tmp5

	o0 = tmp0 + tmp7
	o7 = tmp0 - tmp7
	o1 = tmp1 + tmp6
	o6 = tmp1 - tmp6
	o2 = tmp2 + tmp5
	o5 = tmp2 - tmp5
	o4 = tmp3 + tmp4
	o3 = tmp3 - tmp4
	return
}

// AANForward8x8 applies the scaled 2D forward AAN DCT to b in place in
// float32. Output coefficient i carries the extra factor
// 1/AANDescale2D[i]; quantizers must use tables with the descale folded
// in (quant.FoldedForward). Rows then columns, each vector transformed
// where it lies: the kernel has all eight inputs by value before the
// first store, so writing a vector back over itself is safe.
func AANForward8x8(b *Block) {
	for r := 0; r < 8; r++ {
		v := b[r*8 : r*8+8 : r*8+8]
		v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7] = aanForward8(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
	}
	for c := 0; c < 8; c++ {
		b[c], b[c+8], b[c+16], b[c+24], b[c+32], b[c+40], b[c+48], b[c+56] =
			aanForward8(b[c], b[c+8], b[c+16], b[c+24], b[c+32], b[c+40], b[c+48], b[c+56])
	}
}

// AANInverse8x8 applies the 2D inverse AAN DCT to b in place in float32.
// b must hold prescaled coefficients: JPEG-normalized values times
// AANPrescale2D (folded into the dequantizer table by
// quant.FoldedInverse). Output is the spatial block.
func AANInverse8x8(b *Block) {
	for r := 0; r < 8; r++ {
		v := b[r*8 : r*8+8 : r*8+8]
		v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7] = aanInverse8(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
	}
	for c := 0; c < 8; c++ {
		b[c], b[c+8], b[c+16], b[c+24], b[c+32], b[c+40], b[c+48], b[c+56] =
			aanInverse8(b[c], b[c+8], b[c+16], b[c+24], b[c+32], b[c+40], b[c+48], b[c+56])
	}
}
