package dct

import (
	"math"
	"testing"
	"testing/quick"

	"jpegact/internal/tensor"
)

func randBlockF64(r *tensor.RNG, scale float64) [8]float64 {
	var b [8]float64
	for i := range b {
		b[i] = (r.Float64()*2 - 1) * scale
	}
	return b
}

func TestLLMMatchesNaive1D(t *testing.T) {
	r := tensor.NewRNG(1)
	for trial := 0; trial < 200; trial++ {
		in := randBlockF64(r, 128)
		var a, b [8]float64
		Naive1D(&in, &a)
		LLM1D(&in, &b)
		for k := 0; k < 8; k++ {
			if math.Abs(a[k]-b[k]) > 1e-7*math.Max(1, math.Abs(a[k])) {
				t.Fatalf("trial %d coeff %d: naive %v llm %v", trial, k, a[k], b[k])
			}
		}
	}
}

func TestLLMInverseMatchesNaive1D(t *testing.T) {
	r := tensor.NewRNG(2)
	for trial := 0; trial < 200; trial++ {
		in := randBlockF64(r, 128)
		var a, b [8]float64
		NaiveInverse1D(&in, &a)
		LLMInverse1D(&in, &b)
		for k := 0; k < 8; k++ {
			if math.Abs(a[k]-b[k]) > 1e-7*math.Max(1, math.Abs(a[k])) {
				t.Fatalf("trial %d sample %d: naive %v llm %v", trial, k, a[k], b[k])
			}
		}
	}
}

func Test1DRoundtripIsIdentity(t *testing.T) {
	r := tensor.NewRNG(3)
	in := randBlockF64(r, 100)
	var freq, back [8]float64
	LLM1D(&in, &freq)
	LLMInverse1D(&freq, &back)
	for i := range in {
		if math.Abs(in[i]-back[i]) > 1e-6 {
			t.Fatalf("roundtrip: in %v back %v", in[i], back[i])
		}
	}
}

func TestDCNormalization(t *testing.T) {
	// A constant block of value v must have DC = 8v (2D orthonormal JPEG
	// convention: c(0)/2 per dimension → 8× for constant input) and zero AC.
	var b Block
	for i := range b {
		b[i] = 10
	}
	Forward8x8(&b)
	if math.Abs(float64(b[0])-80) > 1e-4 {
		t.Fatalf("DC = %v, want 80", b[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(float64(b[i])) > 1e-4 {
			t.Fatalf("AC[%d] = %v, want 0", i, b[i])
		}
	}
}

func TestParseval(t *testing.T) {
	// The JPEG 2D DCT is orthonormal: energy is preserved.
	r := tensor.NewRNG(4)
	var b Block
	var inE float64
	for i := range b {
		v := float32(r.Norm() * 30)
		b[i] = v
		inE += float64(v) * float64(v)
	}
	Forward8x8(&b)
	var outE float64
	for i := range b {
		outE += float64(b[i]) * float64(b[i])
	}
	if math.Abs(inE-outE)/inE > 1e-5 {
		t.Fatalf("energy changed: %v -> %v", inE, outE)
	}
}

func Test2DRoundtrip(t *testing.T) {
	r := tensor.NewRNG(5)
	var b, orig Block
	for i := range b {
		b[i] = float32(r.Norm() * 50)
		orig[i] = b[i]
	}
	Forward8x8(&b)
	Inverse8x8(&b)
	for i := range b {
		if math.Abs(float64(b[i]-orig[i])) > 1e-3 {
			t.Fatalf("2D roundtrip at %d: %v vs %v", i, b[i], orig[i])
		}
	}
}

func TestNaive2DMatchesLLM2D(t *testing.T) {
	r := tensor.NewRNG(6)
	var a, b Block
	for i := range a {
		v := float32(r.Norm() * 40)
		a[i] = v
		b[i] = v
	}
	NaiveForward8x8(&a)
	Forward8x8(&b)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-3 {
			t.Fatalf("2D mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
	NaiveInverse8x8(&a)
	Inverse8x8(&b)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-3 {
			t.Fatalf("2D inverse mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRoundtripProperty(t *testing.T) {
	r := tensor.NewRNG(7)
	f := func(seed uint32) bool {
		_ = seed
		var b, orig Block
		for i := range b {
			b[i] = float32((r.Float64()*2 - 1) * 127)
			orig[i] = b[i]
		}
		Forward8x8(&b)
		Inverse8x8(&b)
		for i := range b {
			if math.Abs(float64(b[i]-orig[i])) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, z := range Zigzag {
		if z < 0 || z > 63 || seen[z] {
			t.Fatalf("zigzag not a permutation: %d", z)
		}
		seen[z] = true
	}
	// Spot checks from the JPEG spec.
	if Zigzag[0] != 0 || Zigzag[1] != 1 || Zigzag[2] != 8 || Zigzag[63] != 63 {
		t.Fatal("zigzag order incorrect at spot checks")
	}
}

func TestFixedMatchesFloat1D(t *testing.T) {
	r := tensor.NewRNG(8)
	for trial := 0; trial < 100; trial++ {
		var fin [8]float64
		var iin [8]int32
		for i := range fin {
			v := r.Intn(255) - 127
			fin[i] = float64(v)
			iin[i] = int32(v) << passBits
		}
		var fout [8]float64
		var iout [8]int32
		LLM1D(&fin, &fout)
		FixedForward1D(&iin, &iout)
		for k := 0; k < 8; k++ {
			got := float64(iout[k]) / float64(int32(1)<<passBits)
			if math.Abs(got-fout[k]) > 0.5 {
				t.Fatalf("fixed fwd coeff %d: %v vs %v", k, got, fout[k])
			}
		}
	}
}

func TestFixedRoundtrip8x8(t *testing.T) {
	r := tensor.NewRNG(9)
	var b, orig IntBlock
	for i := range b {
		v := int32(r.Intn(255) - 127)
		b[i] = v
		orig[i] = v
	}
	FixedForward8x8(&b)
	FixedInverse8x8(&b)
	for i := range b {
		if d := b[i] - orig[i]; d > 2 || d < -2 {
			t.Fatalf("fixed roundtrip at %d: %d vs %d", i, b[i], orig[i])
		}
	}
}

func TestFixedForwardCloseToFloat8x8(t *testing.T) {
	r := tensor.NewRNG(10)
	var fb Block
	var ib IntBlock
	for i := range fb {
		v := int32(r.Intn(255) - 127)
		fb[i] = float32(v)
		ib[i] = v
	}
	Forward8x8(&fb)
	FixedForward8x8(&ib)
	for i := range fb {
		if math.Abs(float64(ib[i])-float64(fb[i])) > 1.5 {
			t.Fatalf("fixed vs float coeff %d: %d vs %v", i, ib[i], fb[i])
		}
	}
}

func BenchmarkLLMForward8x8(b *testing.B) {
	r := tensor.NewRNG(11)
	var blk Block
	for i := range blk {
		blk[i] = float32(r.Norm() * 30)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := blk
		Forward8x8(&t)
	}
}

func BenchmarkFixedForward8x8(b *testing.B) {
	r := tensor.NewRNG(12)
	var blk IntBlock
	for i := range blk {
		blk[i] = int32(r.Intn(255) - 127)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := blk
		FixedForward8x8(&t)
	}
}
