package quant

import (
	"math"
	"testing"

	"jpegact/internal/dct"
	"jpegact/internal/tensor"
)

// The folded tables must make the scaled-DCT pipeline agree with the
// unscaled one: quantizing a raw AAN coefficient with the folded table
// is descale-then-divide in one multiply, and must land on the same int8
// code the DIV/SH quantizers produce from the normalized coefficient —
// up to the float32-vs-float64 arithmetic difference at exact rounding
// boundaries, which the tests avoid by checking code distance ≤ 1 on
// random data and exactness on grid-aligned data.

// normForward is the JPEG-normalized DCT of b by its definition
// (dct.NormBasis2D), independent of the AAN kernels the folded tables
// serve.
func normForward(b *dct.Block) (out [64]float32) {
	for i := range out {
		var s float64
		for j, v := range b {
			s += float64(v) * float64(dct.NormBasis2D[i][j])
		}
		out[i] = float32(s)
	}
	return
}

func foldedTestDQTs() []DQT {
	return []DQT{
		JPEGQuality(50),
		JPEGQuality(90),
		JPEGQuality(10),
		Uniform("u8", 8, 8),
		Uniform("u32", 8, 32),
	}
}

func TestFoldedQuantizeMatchesDivOnScaledCoefficients(t *testing.T) {
	r := tensor.NewRNG(30)
	for _, d := range foldedTestDQTs() {
		table := d.FoldedForward(false, &dct.AANDescale2D)
		for trial := 0; trial < 50; trial++ {
			var spatial dct.Block
			for i := range spatial {
				spatial[i] = float32((r.Float64()*2 - 1) * 127)
			}
			// Normalized path: the transform's definition + DIV.
			norm := normForward(&spatial)
			var want [64]int8
			DivQuantize(&norm, &d, &want)
			// Scaled path: raw AAN forward + folded table.
			scaled := spatial
			dct.AANForward8x8(&scaled)
			var got [64]int8
			FoldedQuantize((*[64]float32)(&scaled), &table, &got)
			for i := range want {
				if dd := int(got[i]) - int(want[i]); dd > 1 || dd < -1 {
					t.Fatalf("%s trial %d coeff %d: folded %d div %d", d.Name, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFoldedQuantizeMatchesShiftOnScaledCoefficients(t *testing.T) {
	r := tensor.NewRNG(31)
	for _, d := range foldedTestDQTs() {
		table := d.FoldedForward(true, &dct.AANDescale2D)
		for trial := 0; trial < 50; trial++ {
			var spatial dct.Block
			for i := range spatial {
				spatial[i] = float32((r.Float64()*2 - 1) * 127)
			}
			norm := normForward(&spatial)
			var want [64]int8
			ShiftQuantizeFloat(&norm, &d, &want)
			scaled := spatial
			dct.AANForward8x8(&scaled)
			var got [64]int8
			FoldedQuantize((*[64]float32)(&scaled), &table, &got)
			for i := range want {
				if dd := int(got[i]) - int(want[i]); dd > 1 || dd < -1 {
					t.Fatalf("%s trial %d coeff %d: folded %d shift %d", d.Name, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFoldedQuantizeRoundsHalfAwayAndClips(t *testing.T) {
	// With a unit table the quantizer is a pure round-half-away + clip.
	var table [64]float32
	for i := range table {
		table[i] = 1
	}
	var coef [64]float32
	var want [64]int8
	cases := []struct {
		in   float32
		code int8
	}{
		{0, 0}, {0.49, 0}, {0.5, 1}, {-0.5, -1}, {-0.49, 0},
		{1.5, 2}, {-1.5, -2}, {127.4, 127}, {127.5, 127}, {500, 127},
		{-128.4, -128}, {-128.5, -128}, {-500, -128},
	}
	for i, c := range cases {
		coef[i] = c.in
		want[i] = c.code
	}
	var got [64]int8
	FoldedQuantize(&coef, &table, &got)
	for i := range cases {
		if got[i] != want[i] {
			t.Fatalf("case %d (%v): got %d want %d", i, cases[i].in, got[i], want[i])
		}
	}
}

func TestFoldedDequantizeInvertsTable(t *testing.T) {
	for _, shift := range []bool{false, true} {
		for _, d := range foldedTestDQTs() {
			inv := d.FoldedInverse(shift, &dct.AANPrescale2D)
			var q [64]int8
			for i := range q {
				q[i] = int8(i - 32)
			}
			var out [64]float32
			FoldedDequantize(&q, &inv, &out)
			for i, v := range q {
				// q·divisor·prescale, computed in float64 for reference.
				want := float64(v) * d.Effective(i, shift) * dct.AANPrescale2D[i]
				if math.Abs(float64(out[i])-want) > 1e-5*math.Max(1, math.Abs(want)) {
					t.Fatalf("%s shift=%v coeff %d: %v want %v", d.Name, shift, i, out[i], want)
				}
			}
		}
	}
}

func TestFoldedTablesPositiveAndFinite(t *testing.T) {
	for _, shift := range []bool{false, true} {
		for _, d := range foldedTestDQTs() {
			fwd := d.FoldedForward(shift, &dct.AANDescale2D)
			inv := d.FoldedInverse(shift, &dct.AANPrescale2D)
			for i := 0; i < 64; i++ {
				if !(fwd[i] > 0) || math.IsInf(float64(fwd[i]), 0) {
					t.Fatalf("%s shift=%v fwd[%d] = %v", d.Name, shift, i, fwd[i])
				}
				if !(inv[i] > 0) || math.IsInf(float64(inv[i]), 0) {
					t.Fatalf("%s shift=%v inv[%d] = %v", d.Name, shift, i, inv[i])
				}
			}
		}
	}
}
