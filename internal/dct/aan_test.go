package dct

import (
	"math"
	"testing"

	"jpegact/internal/tensor"
)

// relErr is the mixed absolute/relative error tolerance helper used by
// the AAN-vs-reference tests: the truncated libjpeg rotation constants
// carry ~1e-8 relative error, so exact float64 equality is off the table
// even for the float64 kernels.
func relErr(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

func TestAANMatchesNaive1D(t *testing.T) {
	r := tensor.NewRNG(20)
	for trial := 0; trial < 200; trial++ {
		in := randBlockF64(r, 128)
		var want, raw [8]float64
		Naive1D(&in, &want)
		AAN1D(&in, &raw)
		for k := 0; k < 8; k++ {
			got := raw[k] * AANDescale1D[k]
			if !relErr(got, want[k], 1e-6) {
				t.Fatalf("trial %d coeff %d: naive %v aan %v", trial, k, want[k], got)
			}
		}
	}
}

func TestAANInverseMatchesNaive1D(t *testing.T) {
	r := tensor.NewRNG(21)
	for trial := 0; trial < 200; trial++ {
		in := randBlockF64(r, 128)
		var want, pre, got [8]float64
		NaiveInverse1D(&in, &want)
		for k := 0; k < 8; k++ {
			pre[k] = in[k] * AANPrescale1D[k]
		}
		AANInverse1D(&pre, &got)
		for k := 0; k < 8; k++ {
			if !relErr(got[k], want[k], 1e-6) {
				t.Fatalf("trial %d sample %d: naive %v aan %v", trial, k, want[k], got[k])
			}
		}
	}
}

// aan8 runs one of the float32 1D kernels on a float64 vector.
func aan8(kernel func(a, b, c, d, e, f, g, h float32) (float32, float32, float32, float32, float32, float32, float32, float32), in *[8]float64) (out [8]float64) {
	o0, o1, o2, o3, o4, o5, o6, o7 := kernel(float32(in[0]), float32(in[1]), float32(in[2]), float32(in[3]),
		float32(in[4]), float32(in[5]), float32(in[6]), float32(in[7]))
	for k, v := range [8]float32{o0, o1, o2, o3, o4, o5, o6, o7} {
		out[k] = float64(v)
	}
	return
}

func TestAANAndLLMWithinFloatTolOfNaive(t *testing.T) {
	// Over integer inputs spanning the full activation range, the float32
	// AAN kernels the 2D drivers run stay within 1e-5 of the O(n²)
	// reference relative to the largest input (float32 rounding grows with
	// it), and the hardware unit's Q13 LLM within its integer rounding.
	r := tensor.NewRNG(22)
	for trial := 0; trial < 500; trial++ {
		var in, pre, want, wantInv [8]float64
		var q, llm [8]int32
		tol := 1e-5
		for k := range in {
			v := r.Intn(1001) - 500
			in[k], q[k] = float64(v), int32(v)<<passBits
			pre[k] = in[k] * AANPrescale1D[k]
			tol = max(tol, 1e-5*math.Abs(in[k]))
		}
		Naive1D(&in, &want)
		NaiveInverse1D(&in, &wantInv)
		aan, aanInv := aan8(aanForward8, &in), aan8(aanInverse8, &pre)
		FixedForward1D(&q, &llm)
		for k := 0; k < 8; k++ {
			if math.Abs(aan[k]*AANDescale1D[k]-want[k]) > tol {
				t.Fatalf("aan trial %d coeff %d: %v vs %v", trial, k, aan[k]*AANDescale1D[k], want[k])
			}
			if math.Abs(aanInv[k]-wantInv[k]) > tol {
				t.Fatalf("aan inverse trial %d sample %d: %v vs %v", trial, k, aanInv[k], wantInv[k])
			}
			if got := unpass(llm[k]); math.Abs(got-want[k]) > 0.5 {
				t.Fatalf("llm trial %d coeff %d: %v vs %v", trial, k, got, want[k])
			}
		}
	}
}

// TestAAN2DMatchesLLM2D holds the raw AAN kernels with the float64 scale
// tables, in both directions, to the O(n²) reference on Gaussian blocks
// and to the hardware unit's Q13 LLM on int8 blocks.
func TestAAN2DMatchesLLM2D(t *testing.T) {
	r := tensor.NewRNG(23)
	var want, got Block
	for i := range want {
		v := float32(r.Norm() * 40)
		want[i] = v
		got[i] = v
	}
	NaiveForward8x8(&want)
	AANForward8x8(&got)
	for i := range want {
		g := float64(got[i]) * AANDescale2D[i]
		if !relErr(g, float64(want[i]), 1e-4) {
			t.Fatalf("2D mismatch at %d: naive %v aan %v", i, want[i], g)
		}
		// Both inverses receive the reference coefficients.
		got[i] = float32(float64(want[i]) * AANPrescale2D[i])
	}
	NaiveInverse8x8(&want)
	AANInverse8x8(&got)
	for i := range want {
		if !relErr(float64(got[i]), float64(want[i]), 1e-4) {
			t.Fatalf("2D inverse mismatch at %d: naive %v aan %v", i, want[i], got[i])
		}
	}

	a, b := int8Block(r)
	AANForward8x8(&a)
	FixedForward8x8(&b)
	for i := range a {
		got := float64(a[i]) * AANDescale2D[i]
		if math.Abs(got-float64(b[i])) > 1.5 {
			t.Fatalf("2D mismatch at %d: llm %d aan %v", i, b[i], got)
		}
		// The integer coefficients are what both inverses receive.
		a[i] = float32(float64(b[i]) * AANPrescale2D[i])
	}
	AANInverse8x8(&a)
	FixedInverse8x8(&b)
	for i := range a {
		if math.Abs(float64(a[i])-float64(b[i])) > 1.5 {
			t.Fatalf("2D inverse mismatch at %d: llm %d aan %v", i, b[i], a[i])
		}
	}
}

func TestAAN2DRoundtrip(t *testing.T) {
	// Forward, normalize via the descale factors, prescale, inverse —
	// the exact dataflow of the folded quantizer tables minus the
	// integer rounding — must reproduce the input.
	r := tensor.NewRNG(24)
	var b, orig Block
	for i := range b {
		b[i] = float32((r.Float64()*2 - 1) * 127)
		orig[i] = b[i]
	}
	AANForward8x8(&b)
	for i := range b {
		b[i] = float32(float64(b[i]) * AANDescale2D[i] * AANPrescale2D[i])
	}
	AANInverse8x8(&b)
	for i := range b {
		if math.Abs(float64(b[i]-orig[i])) > 1e-2 {
			t.Fatalf("roundtrip at %d: %v vs %v", i, b[i], orig[i])
		}
	}
}

func TestAANDCNormalization(t *testing.T) {
	// Constant block of v: descaled DC must be 8v (JPEG 2D convention),
	// descaled AC zero.
	var b Block
	for i := range b {
		b[i] = 10
	}
	AANForward8x8(&b)
	if got := float64(b[0]) * AANDescale2D[0]; math.Abs(got-80) > 1e-3 {
		t.Fatalf("DC = %v, want 80", got)
	}
	for i := 1; i < 64; i++ {
		if got := float64(b[i]) * AANDescale2D[i]; math.Abs(got) > 1e-3 {
			t.Fatalf("AC[%d] = %v, want 0", i, got)
		}
	}
}

func TestAANScaleTablesConsistent(t *testing.T) {
	for k := 0; k < 8; k++ {
		if !relErr(AANDescale1D[k]*(2*math.Sqrt2*aanFactors[k]), 1, 1e-12) {
			t.Fatalf("descale1d[%d] inconsistent", k)
		}
	}
	for i := 0; i < 64; i++ {
		prod := AANDescale2D[i] * (8 * aanFactors[i/8] * aanFactors[i%8])
		if !relErr(prod, 1, 1e-12) {
			t.Fatalf("descale2d[%d] inconsistent", i)
		}
		// Descale = 1/(8f), Prescale = f/8 ⇒ their product is exactly 1/64.
		if !relErr(AANDescale2D[i]*AANPrescale2D[i], 1.0/64, 1e-12) {
			t.Fatalf("prescale2d[%d]·descale2d[%d] = %v, want 1/64", i, i, AANDescale2D[i]*AANPrescale2D[i])
		}
	}
}

// staged8x8 is the 2D driver the in-place one replaced: every row and
// column is copied into a staging vector, transformed, and copied out
// through a second 64-float block. It cannot alias, so it is the oracle
// for "transforming a vector where it lies changes nothing".
func staged8x8(b *Block, kernel func(a, b, c, d, e, f, g, h float32) (float32, float32, float32, float32, float32, float32, float32, float32)) {
	var in, out [8]float32
	var tmp [64]float32
	for r := 0; r < 8; r++ {
		copy(in[:], b[r*8:(r+1)*8])
		out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = kernel(in[0], in[1], in[2], in[3], in[4], in[5], in[6], in[7])
		copy(tmp[r*8:], out[:])
	}
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			in[r] = tmp[r*8+c]
		}
		out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = kernel(in[0], in[1], in[2], in[3], in[4], in[5], in[6], in[7])
		for r := 0; r < 8; r++ {
			b[r*8+c] = out[r]
		}
	}
}

func TestAANInPlaceBitIdenticalToStaged(t *testing.T) {
	r := tensor.NewRNG(27)
	for trial := 0; trial < 500; trial++ {
		var a, b Block
		for i := range a {
			a[i] = float32(r.Norm() * 60)
			if trial%5 == 0 && i%3 == 0 {
				a[i] = 0
			}
			b[i] = a[i]
		}
		AANForward8x8(&a)
		staged8x8(&b, aanForward8)
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("forward trial %d coeff %d: in place %v, staged %v", trial, i, a[i], b[i])
			}
		}
		AANInverse8x8(&a)
		staged8x8(&b, aanInverse8)
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("inverse trial %d sample %d: in place %v, staged %v", trial, i, a[i], b[i])
			}
		}
	}
}

func BenchmarkAANForward8x8(b *testing.B) {
	r := tensor.NewRNG(25)
	var blk Block
	for i := range blk {
		blk[i] = float32(r.Norm() * 30)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := blk
		AANForward8x8(&t)
	}
}

func BenchmarkAANInverse8x8(b *testing.B) {
	r := tensor.NewRNG(26)
	var blk Block
	for i := range blk {
		blk[i] = float32(r.Norm() * 30)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := blk
		AANInverse8x8(&t)
	}
}

// AANDescale1D[k] converts a raw 1D AAN forward output back to the JPEG
// normalization (S[k] = AAN1D out[k] · AANDescale1D[k]); AANPrescale1D[k]
// is applied to JPEG-normalized coefficients before AANInverse1D.
var AANDescale1D, AANPrescale1D [8]float64

func init() {
	for k := 0; k < 8; k++ {
		AANDescale1D[k] = 1 / (2 * math.Sqrt2 * aanFactors[k])
		AANPrescale1D[k] = aanFactors[k] / (2 * math.Sqrt2)
	}
}

// AAN1D computes the scaled forward AAN DCT of in (5 multiplies).
// Output k equals Naive1D output k times 2√2·aan[k]; multiply by
// AANDescale1D to normalize.
func AAN1D(in, out *[8]float64) {
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

	out[0] = tmp10 + tmp11
	out[4] = tmp10 - tmp11

	z1 := (tmp12 + tmp13) * aan0_707106781
	out[2] = tmp13 + z1
	out[6] = tmp13 - z1

	// Odd part.
	tmp10 = tmp4 + tmp5
	tmp11 = tmp5 + tmp6
	tmp12 = tmp6 + tmp7

	z5 := (tmp10 - tmp12) * aan0_382683433
	z2 := aan0_541196100*tmp10 + z5
	z4 := aan1_306562965*tmp12 + z5
	z3 := tmp11 * aan0_707106781

	z11 := tmp7 + z3
	z13 := tmp7 - z3

	out[5] = z13 + z2
	out[3] = z13 - z2
	out[1] = z11 + z4
	out[7] = z11 - z4
}

// AANInverse1D computes the inverse AAN DCT of prescaled coefficients:
// in[k] must be the JPEG-normalized coefficient times AANPrescale1D[k].
// Output matches NaiveInverse1D of the unscaled coefficients.
func AANInverse1D(in, out *[8]float64) {
	// Even part.
	tmp0 := in[0]
	tmp1 := in[2]
	tmp2 := in[4]
	tmp3 := in[6]

	tmp10 := tmp0 + tmp2
	tmp11 := tmp0 - tmp2
	tmp13 := tmp1 + tmp3
	tmp12 := (tmp1-tmp3)*aan1_414213562 - tmp13

	tmp0 = tmp10 + tmp13
	tmp3 = tmp10 - tmp13
	tmp1 = tmp11 + tmp12
	tmp2 = tmp11 - tmp12

	// Odd part.
	tmp4 := in[1]
	tmp5 := in[3]
	tmp6 := in[5]
	tmp7 := in[7]

	z13 := tmp6 + tmp5
	z10 := tmp6 - tmp5
	z11 := tmp4 + tmp7
	z12 := tmp4 - tmp7

	tmp7 = z11 + z13
	tmp11 = (z11 - z13) * aan1_414213562

	z5 := (z10 + z12) * aan1_847759065
	tmp10 = aan1_082392200*z12 - z5
	tmp12 = -aan2_613125930*z10 + z5

	tmp6 = tmp12 - tmp7
	tmp5 = tmp11 - tmp6
	tmp4 = tmp10 + tmp5

	out[0] = tmp0 + tmp7
	out[7] = tmp0 - tmp7
	out[1] = tmp1 + tmp6
	out[6] = tmp1 - tmp6
	out[2] = tmp2 + tmp5
	out[5] = tmp2 - tmp5
	out[4] = tmp3 + tmp4
	out[3] = tmp3 - tmp4
}
