package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"jpegact/internal/parallel"
)

func TestShapeElems(t *testing.T) {
	s := Shape{2, 3, 4, 5}
	if got := s.Elems(); got != 120 {
		t.Fatalf("Elems = %d, want 120", got)
	}
	if !s.Valid() {
		t.Fatal("shape should be valid")
	}
	if (Shape{0, 1, 1, 1}).Valid() {
		t.Fatal("zero dim should be invalid")
	}
}

func TestNewAndIndex(t *testing.T) {
	x := New(2, 3, 4, 5)
	if x.Elems() != 120 {
		t.Fatalf("Elems = %d", x.Elems())
	}
	if x.Bytes() != 480 {
		t.Fatalf("Bytes = %d", x.Bytes())
	}
	x.Data[119] = 7
	if x.At(1, 2, 3, 4) != 7 {
		t.Fatal("At does not read the last element")
	}
	// Last element index must be Elems-1.
	if x.Index(1, 2, 3, 4) != 119 {
		t.Fatalf("Index = %d, want 119", x.Index(1, 2, 3, 4))
	}
}

func TestIndexIsRowMajorNCHW(t *testing.T) {
	x := New(2, 2, 2, 2)
	want := 0
	for n := 0; n < 2; n++ {
		for c := 0; c < 2; c++ {
			for h := 0; h < 2; h++ {
				for w := 0; w < 2; w++ {
					if got := x.Index(n, c, h, w); got != want {
						t.Fatalf("Index(%d,%d,%d,%d)=%d, want %d", n, c, h, w, got, want)
					}
					want++
				}
			}
		}
	}
}

func TestInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid shape")
		}
	}()
	New(0, 1, 1, 1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice(make([]float32, 3), 1, 1, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := New(1, 1, 2, 2)
	x.Fill(3)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestArithmetic(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	y := FromSlice([]float32{10, 20, 30, 40}, 1, 1, 2, 2)
	x.Add(y)
	if x.Data[3] != 44 {
		t.Fatalf("Add: got %v", x.Data)
	}
	x.Scale(2)
	if x.Data[0] != 22 {
		t.Fatalf("Scale: got %v", x.Data)
	}
}

func TestMaxAbsAndChannelMaxAbs(t *testing.T) {
	x := New(2, 2, 1, 2)
	// n0c0: {1,-5}, n0c1: {2,0}, n1c0: {0,3}, n1c1: {-7,1}
	copy(x.Data, []float32{1, -5, 2, 0, 0, 3, -7, 1})
	if x.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
	cm := x.ChannelMaxAbs()
	if cm[0] != 5 || cm[1] != 7 {
		t.Fatalf("ChannelMaxAbs = %v, want [5 7]", cm)
	}
}

// TestChannelMaxAbsAcrossWorkers: channels shard over the pool; the
// maxima must equal a serial scan (NaNs ignored, as `>` ignores them) at
// every worker count, including a channel count the shards do not divide.
func TestChannelMaxAbsAcrossWorkers(t *testing.T) {
	r := NewRNG(31)
	x := New(3, 37, 23, 29)
	x.FillNormal(r, 0, 2)
	x.Data[5] = float32(math.NaN())
	x.Data[len(x.Data)-1] = -1e6
	want := make([]float32, x.Shape.C)
	for i, v := range x.Data {
		c := i / (x.Shape.H * x.Shape.W) % x.Shape.C
		if a := float32(math.Abs(float64(v))); a > want[c] {
			want[c] = a
		}
	}
	for _, w := range []int{1, 2, 3, 8} {
		old := parallel.SetWorkers(w)
		got := x.ChannelMaxAbs()
		parallel.SetWorkers(old)
		for c := range want {
			if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
				t.Fatalf("workers=%d channel %d: %v, want %v", w, c, got[c], want[c])
			}
		}
	}
}

func TestErrorsAndStats(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 1, 4)
	b := FromSlice([]float32{1, 2, 3, 8}, 1, 1, 1, 4)
	if got := MSE(a, b); got != 4 {
		t.Fatalf("MSE = %v", got)
	}
	if got := L2Error(a, b); got != 1 {
		t.Fatalf("L2Error = %v", got)
	}
	if got := a.Mean(); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := a.Std(); math.Abs(got-math.Sqrt(1.25)) > 1e-9 {
		t.Fatalf("Std = %v", got)
	}
}

// The three Pad tests hold the geometry of Fig. 12; that gathering a
// block zero-fills the fringe and scattering it back drops it is held
// where the walk lives (compress's TestGatherScatterRoundtrip).

func TestPadForBlocksAligned(t *testing.T) {
	info := BlockPadInfo(Shape{1, 2, 8, 8}, 8)
	if info.PadRows != 0 || info.PadCols != 0 || info.PaddedElems() != 128 {
		t.Fatalf("aligned tensor should need no padding, got %+v", info)
	}
}

func TestPadForBlocksUnaligned(t *testing.T) {
	// 5x1x6x6 example from Fig. 12a: rows=30 -> pad 2, cols=6 -> pad 2.
	info := BlockPadInfo(Shape{5, 1, 6, 6}, 8)
	if info.BlockRows != 32 || info.BlockCols != 8 {
		t.Fatalf("got %dx%d, want 32x8", info.BlockRows, info.BlockCols)
	}
	if info.PadRows != 2 || info.PadCols != 2 || info.PaddedElems() != 256 {
		t.Fatalf("padding %+v", info)
	}
}

func TestPadRoundtripProperty(t *testing.T) {
	f := func(n, c, h, w uint8) bool {
		sh := Shape{int(n%4) + 1, int(c%4) + 1, int(h%12) + 1, int(w%12) + 1}
		info := BlockPadInfo(sh, 8)
		return info.Orig == sh &&
			info.BlockRows%8 == 0 && info.BlockCols%8 == 0 &&
			info.PadRows >= 0 && info.PadRows < 8 && info.PadCols >= 0 && info.PadCols < 8 &&
			info.BlockRows-info.PadRows == sh.N*sh.C*sh.H && info.BlockCols-info.PadCols == sh.W
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed must be remapped")
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(3)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("norm mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.08 {
		t.Fatalf("norm variance = %v", variance)
	}
}

func TestFillHe(t *testing.T) {
	x := New(1, 1, 100, 100)
	x.FillHe(NewRNG(5), 50)
	std := x.Std()
	want := math.Sqrt(2.0 / 50.0)
	if math.Abs(std-want)/want > 0.1 {
		t.Fatalf("He std = %v, want ~%v", std, want)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func BenchmarkChannelMaxAbs(b *testing.B) {
	x := New(8, 16, 32, 32)
	x.FillNormal(NewRNG(1), 0, 1)
	b.SetBytes(int64(x.Bytes()))
	for i := 0; i < b.N; i++ {
		x.ChannelMaxAbs()
	}
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	var sum float64
	for _, v := range t.Data {
		sum += float64(v)
	}
	return sum / float64(len(t.Data))
}

// Std returns the population standard deviation of all elements.
func (t *Tensor) Std() float64 {
	m := t.Mean()
	var sum float64
	for _, v := range t.Data {
		d := float64(v) - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(t.Data)))
}
