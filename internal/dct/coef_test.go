package dct

import (
	"math"
	"testing"
)

// TestNormBasisOrthonormal pins the property the frequency-domain path
// rests on: the JPEG-normalized basis rows are orthonormal.
func TestNormBasisOrthonormal(t *testing.T) {
	for i := 0; i < 64; i++ {
		for k := i; k < 64; k++ {
			var dot float64
			for j := 0; j < 64; j++ {
				dot += float64(NormBasis2D[i][j]) * float64(NormBasis2D[k][j])
			}
			want := 0.0
			if i == k {
				want = 1
			}
			if math.Abs(dot-want) > 1e-5 {
				t.Fatalf("⟨B[%d], B[%d]⟩ = %g, want %g", i, k, dot, want)
			}
		}
	}
}

// TestNormBasisMatchesForward checks that analysis against NormBasis2D
// reproduces the reference JPEG-normalized transform.
func TestNormBasisMatchesForward(t *testing.T) {
	var b Block
	for j := range b {
		b[j] = float32(math.Sin(float64(j)*0.7))*3 + float32(j%5)
	}
	ref := b
	Forward8x8(&ref)
	for i := 0; i < 64; i++ {
		var s float64
		for j := 0; j < 64; j++ {
			s += float64(b[j]) * float64(NormBasis2D[i][j])
		}
		if math.Abs(s-float64(ref[i])) > 1e-3 {
			t.Fatalf("coef %d: basis dot %g, Forward8x8 %g", i, s, ref[i])
		}
	}
}

// DCToSum is the factor converting a block's JPEG-normalized DC
// coefficient to the block's spatial sum: sum = DC · DCToSum (the DC
// basis value 1/8, inverted).
const DCToSum = 8

// TestDCSumIdentity pins the DC sum identity: a block's spatial sum is
// DCToSum times its normalized DC coefficient.
func TestDCSumIdentity(t *testing.T) {
	var b Block
	var sum float64
	for j := range b {
		b[j] = float32(j)*0.25 - 4
		sum += float64(b[j])
	}
	f := b
	Forward8x8(&f)
	if got := float64(f[0]) * DCToSum; math.Abs(got-sum) > 1e-3 {
		t.Fatalf("DC·%d = %g, block sum = %g", DCToSum, got, sum)
	}
}

// TestParsevalNormBasis checks ⟨x, y⟩ spatial equals ⟨S(x), S(y)⟩ in the
// normalized coefficient domain.
func TestParsevalNormBasis(t *testing.T) {
	var x, y Block
	for j := range x {
		x[j] = float32(math.Cos(float64(j) * 0.3))
		y[j] = float32(math.Sin(float64(j)*0.11)) * 2
	}
	var spatial float64
	for j := range x {
		spatial += float64(x[j]) * float64(y[j])
	}
	fx, fy := x, y
	Forward8x8(&fx)
	Forward8x8(&fy)
	var freq float64
	for i := range fx {
		freq += float64(fx[i]) * float64(fy[i])
	}
	if math.Abs(spatial-freq) > 1e-3 {
		t.Fatalf("Parseval: spatial %g, freq %g", spatial, freq)
	}
}

// TestAANDescale32 pins the float32 descale copy to the float64 table.
func TestAANDescale32(t *testing.T) {
	for i := range AANDescale2D {
		if AANDescale2D32[i] != float32(AANDescale2D[i]) {
			t.Fatalf("AANDescale2D32[%d] = %v, want %v", i, AANDescale2D32[i], float32(AANDescale2D[i]))
		}
	}
}
