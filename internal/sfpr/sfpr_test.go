package sfpr

import (
	"math"
	"testing"
	"testing/quick"

	"jpegact/internal/tensor"
)

// FP16 is IEEE half precision: a second format to hold Minifloat to, next
// to the FP8 that 8-bit DPR uses.
var FP16 = Minifloat{ExpBits: 5, ManBits: 10}

func randAct(r *tensor.RNG, n, c, h, w int, std float64) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	x.FillNormal(r, 0, std)
	return x
}

// Bytes returns the storage footprint: one byte per value plus one float32
// scale per channel.
func (c *Compressed) Bytes() int { return len(c.Values) + 4*len(c.Scales) }

// Decompress reconstructs the activation from c.
func Decompress(c *Compressed) *tensor.Tensor {
	out := tensor.New(c.Shape.N, c.Shape.C, c.Shape.H, c.Shape.W)
	DequantizeInto(c.Values, c.Scales, out)
	return out
}

// roundtrip compresses x and decompresses it again, returning the
// recovered tensor and the stored bytes.
func roundtrip(x *tensor.Tensor, s float64) (*tensor.Tensor, int) {
	c := Compress(x, s)
	return Decompress(c), c.Bytes()
}

func TestSFPRRoundtripError(t *testing.T) {
	r := tensor.NewRNG(1)
	x := randAct(r, 2, 4, 8, 8, 1.0)
	rec, bytes := roundtrip(x, DefaultS)
	if bytes != x.Elems()+4*4 {
		t.Fatalf("bytes = %d", bytes)
	}
	// With S=1.125 the quantization step per channel is max/ (128/1.125);
	// per-element error must be far below the data std.
	if e := tensor.L2Error(x, rec); e > 0.01 {
		t.Fatalf("L2 error %v too high", e)
	}
}

func TestSFPRScaleNormalizesSmallChannels(t *testing.T) {
	// A channel with tiny range must still use most of the int8 range —
	// the key advantage over DPR (§III-B, §VI-B).
	r := tensor.NewRNG(2)
	x := tensor.New(1, 2, 16, 16)
	for i := 0; i < 256; i++ {
		x.Data[i] = float32(r.Norm()) * 0.001 // tiny channel
		x.Data[256+i] = float32(r.Norm()) * 100
	}
	c := Compress(x, 1.0)
	var maxTiny int8
	for i := 0; i < 256; i++ {
		v := c.Values[i]
		if v < 0 {
			v = -v
		}
		if v > maxTiny {
			maxTiny = v
		}
	}
	if maxTiny < 100 {
		t.Fatalf("tiny channel max code %d: scale normalization failed", maxTiny)
	}
	rec := Decompress(c)
	// Error within the tiny channel is bounded by its own max/128 (the
	// S=1.0 clip of the max element), despite the 1e5 range difference
	// between channels.
	bound := float64(x.ChannelMaxAbs()[0])/128 + 1e-9
	for i := 0; i < 256; i++ {
		if d := math.Abs(float64(rec.Data[i] - x.Data[i])); d > bound {
			t.Fatalf("tiny channel err %v at %d (bound %v)", d, i, bound)
		}
	}
}

func TestSFPRClipping(t *testing.T) {
	// With S > 1, values at the channel max must clip to 127.
	x := tensor.New(1, 1, 1, 4)
	copy(x.Data, []float32{1, -1, 0.5, 0})
	c := Compress(x, 1.125)
	if c.Values[0] != 127 {
		t.Fatalf("max value code = %d, want 127 (clipped)", c.Values[0])
	}
	if c.Values[1] != -128 {
		t.Fatalf("min value code = %d, want -128", c.Values[1])
	}
	if c.Values[3] != 0 {
		t.Fatal("zero must stay zero")
	}
	// 0.5 * 1.125 * 128 = 72
	if c.Values[2] != 72 {
		t.Fatalf("mid code = %d, want 72", c.Values[2])
	}
}

func TestSFPRAllZeroChannel(t *testing.T) {
	x := tensor.New(1, 2, 2, 2)
	x.Data[4] = 3 // only channel 1 has data
	c := Compress(x, 1.0)
	if c.Scales[0] != 0 {
		t.Fatal("all-zero channel must have zero scale")
	}
	rec := Decompress(c)
	for i := 0; i < 4; i++ {
		if rec.Data[i] != 0 {
			t.Fatal("all-zero channel must reconstruct to zero")
		}
	}
	if rec.Data[4] == 0 {
		t.Fatal("non-zero channel lost")
	}
}

func TestSFPRPreservesZeroSparsity(t *testing.T) {
	// Exact zeros (ReLU outputs) must stay exactly zero so ZVC can code
	// them afterwards.
	r := tensor.NewRNG(3)
	x := randAct(r, 1, 3, 8, 8, 1)
	for i := 0; i < len(x.Data); i += 2 {
		x.Data[i] = 0
	}
	c := Compress(x, DefaultS)
	for i := 0; i < len(x.Data); i += 2 {
		if c.Values[i] != 0 {
			t.Fatalf("zero input produced code %d", c.Values[i])
		}
	}
}

func TestSFPRRoundtripProperty(t *testing.T) {
	r := tensor.NewRNG(4)
	f := func(stdSeed uint8) bool {
		std := math.Pow(10, float64(stdSeed%7)-3) // 1e-3 .. 1e3
		x := randAct(r, 1, 2, 8, 8, std)
		rec, _ := roundtrip(x, DefaultS)
		// Error per element bounded by channel max / 64 (S=1.125 step ≈
		// max/113, plus clipping of the top 11% magnitudes).
		maxes := x.ChannelMaxAbs()
		hw := 64
		for c := 0; c < 2; c++ {
			bound := float64(maxes[c]) * 0.15 // clipped tail bound
			for n := 0; n < 1; n++ {
				base := (n*2 + c) * hw
				for i := 0; i < hw; i++ {
					if math.Abs(float64(rec.Data[base+i]-x.Data[base+i])) > bound+1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeUtilizationSFPRVsDPR(t *testing.T) {
	// On a small-range channel (range ~0.16, §VI-B) SFPR must use the
	// integer range much better than 8-bit DPR uses its code space.
	r := tensor.NewRNG(5)
	x := tensor.New(4, 1, 16, 16)
	x.FillUniform(r, -0.08, 0.08)
	c := Compress(x, 1.0)
	sfprUtil := RangeUtilization(c.Values, x.Shape)
	if sfprUtil < 0.5 {
		t.Fatalf("SFPR range utilization %v, want >= 0.5", sfprUtil)
	}
}

func TestMinifloatExactValues(t *testing.T) {
	// FP16 must represent small integers and halves exactly.
	for _, v := range []float32{0, 1, -1, 0.5, 2, 1024, -3.25} {
		if got := FP16.Quantize(v); got != v {
			t.Fatalf("FP16(%v) = %v", v, got)
		}
	}
	// FP8 e4m3: max normal = 2^7 * (2 - 1/8) = 240.
	if got := FP8.Quantize(1e9); got != 240 {
		t.Fatalf("FP8 saturation = %v, want 240", got)
	}
	if got := FP8.Quantize(-1e9); got != -240 {
		t.Fatalf("FP8 negative saturation = %v", got)
	}
}

func TestMinifloatMonotone(t *testing.T) {
	prev := float32(math.Inf(-1))
	for v := float32(-300); v <= 300; v += 0.37 {
		q := FP8.Quantize(v)
		if q < prev {
			t.Fatalf("FP8 quantization not monotone at %v: %v < %v", v, q, prev)
		}
		prev = q
	}
}

func TestMinifloatRelativeError(t *testing.T) {
	r := tensor.NewRNG(6)
	for i := 0; i < 1000; i++ {
		v := float32(r.Norm() * 10)
		if v == 0 {
			continue
		}
		q := FP16.Quantize(v)
		if rel := math.Abs(float64(q-v)) / math.Abs(float64(v)); rel > 1.0/1024 {
			t.Fatalf("FP16 relative error %v for %v", rel, v)
		}
		q8 := FP8.Quantize(v)
		if math.Abs(float64(v)) <= 240 {
			if rel := math.Abs(float64(q8-v)) / math.Abs(float64(v)); rel > 1.0/8 {
				t.Fatalf("FP8 relative error %v for %v", rel, v)
			}
		}
	}
}

func TestMinifloatSubnormals(t *testing.T) {
	// FP8 e4m3 subnormal quantum = 2^(1-7-3) = 2^-9.
	quantum := float32(math.Pow(2, -9))
	if got := FP8.Quantize(quantum); got != quantum {
		t.Fatalf("subnormal quantum not exact: %v", got)
	}
	if got := FP8.Quantize(quantum / 3); got != 0 {
		t.Fatalf("tiny value should flush to 0, got %v", got)
	}
}

func TestDPRUnderUtilizesSmallRange(t *testing.T) {
	// The §VI-B phenomenon: channels with range ~0.16 use few of the
	// 8-bit DPR code points but most SFPR code points, which is why GIST
	// loses accuracy where SFPR does not.
	r := tensor.NewRNG(7)
	x := tensor.New(1, 1, 32, 32)
	x.FillUniform(r, -0.08, 0.08)
	codes := map[float32]bool{}
	for _, v := range x.Data {
		codes[FP8.Quantize(v)] = true
	}
	dprUtil := float64(len(codes)) / 256
	c := Compress(x, 1.0)
	sfprUtil := RangeUtilization(c.Values, x.Shape)
	if dprUtil >= sfprUtil {
		t.Fatalf("DPR util %v should be below SFPR util %v", dprUtil, sfprUtil)
	}
}

// TestDPRTensorAndCodes: the byte GIST stores decodes to DPR's value bit
// for bit — −0, the subnormals, rounding into the next binade and
// saturation included — +0 alone has the zero code, and NaN (which
// Quantize passes through with its payload) comes back as a NaN.
func TestDPRTensorAndCodes(t *testing.T) {
	r := tensor.NewRNG(8)
	x := randAct(r, 1, 2, 4, 4, 1)
	vals := append(x.Data,
		0, float32(math.Copysign(0, -1)), // ±0
		1e-40, -1e-40, 2e-3, -2e-3, 1.0/1024, 15.0/1024, // float32 and e4m3 subnormals
		1.0/64, 0.0625*1.03, 1.9999, // the smallest normal, rounding up a binade
		240, 250, -1e30, float32(math.Inf(1)), float32(math.Inf(-1)), // saturation
	)
	for _, v := range vals {
		c := FP8Code(v)
		if got, want := FP8Value(c), FP8.Quantize(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%v: code %#02x decodes to %v (bits %08x), DPR gives %v (bits %08x)", v, c, got, math.Float32bits(got), want, math.Float32bits(want))
		}
		if (c == 0) != (math.Float32bits(FP8.Quantize(v)) == 0) {
			t.Fatalf("%v: code %#02x; only +0 has the zero code", v, c)
		}
	}
	if nan := FP8Value(FP8Code(float32(math.NaN()))); nan == nan {
		t.Fatalf("NaN decodes to %v", nan)
	}
	for c := 0; c < 256; c++ {
		if v := FP8Value(byte(c)); v == v && FP8Code(v) != byte(c) {
			t.Fatalf("code %#02x decodes to %v, which codes to %#02x", c, v, FP8Code(v))
		}
	}
}

// TestRunsMatchWholeTensor: QuantizeRun and DequantizeRun over runs of
// any length — crossing plane boundaries, the last one a short tail —
// give exactly the slices of QuantizeInto's codes and DequantizeInto's
// floats at the runs' offsets, and write nothing past their run. The
// whole-tensor casts are held to Eqn. 5 element by element first, with
// each element's channel scale, since they run on the run casts.
func TestRunsMatchWholeTensor(t *testing.T) {
	r := tensor.NewRNG(11)
	for trial := 0; trial < 40; trial++ {
		sh := tensor.Shape{N: 1 + r.Intn(3), C: 1 + r.Intn(5), H: 1 + r.Intn(9), W: 1 + r.Intn(9)}
		x := randAct(r, sh.N, sh.C, sh.H, sh.W, 1+10*r.Float64())
		for i := range x.Data {
			if i/(sh.H*sh.W)%sh.C == 0 {
				x.Data[i] = 0 // channel 0 is all zero: scale 0, inverse 0
			}
		}
		scales := make([]float32, sh.C)
		ComputeScales(x, DefaultS, scales)
		codes := make([]int8, x.Elems())
		QuantizeInto(x, scales, codes)
		want := tensor.NewLike(x)
		DequantizeInto(codes, scales, want)
		for i, v := range x.Data {
			sc := scales[i/(sh.H*sh.W)%sh.C]
			var inv float32
			if sc != 0 {
				inv = 1 / (sc * 128)
			}
			if c := Code(v, float64(sc)*128); codes[i] != c || math.Float32bits(want.Data[i]) != math.Float32bits(float32(c)*inv) {
				t.Fatalf("%v: element %d codes to %d and recovers %v; Eqn. 5 gives %d and %v", sh, i, codes[i], want.Data[i], c, float32(c)*inv)
			}
		}

		k := 1 + r.Intn(3*sh.H*sh.W) // a run may span several planes
		got := tensor.NewLike(x)
		got.Fill(float32(math.NaN()))
		for lo := 0; lo < x.Elems(); lo += k {
			n := min(k, x.Elems()-lo)
			vals := make([]int8, n)
			QuantizeRun(x.Data, lo, sh, scales, vals)
			DequantizeRun(vals, lo, sh, scales, got.Data)
			for i, v := range vals {
				if v != codes[lo+i] {
					t.Fatalf("%v, runs of %d: QuantizeRun code %d is %d, QuantizeInto wrote %d", sh, k, lo+i, v, codes[lo+i])
				}
				if math.Float32bits(got.Data[lo+i]) != math.Float32bits(want.Data[lo+i]) {
					t.Fatalf("%v, runs of %d: DequantizeRun value %d is %v, DequantizeInto wrote %v", sh, k, lo+i, got.Data[lo+i], want.Data[lo+i])
				}
			}
			if end := lo + n; end < x.Elems() && !math.IsNaN(float64(got.Data[end])) {
				t.Fatalf("%v, runs of %d: DequantizeRun of [%d, %d) wrote value %d", sh, k, lo, end, end)
			}
		}
	}
}

func BenchmarkSFPRCompress(b *testing.B) {
	r := tensor.NewRNG(10)
	x := randAct(r, 8, 16, 32, 32, 1)
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(x, DefaultS)
	}
}

// RangeUtilization returns the average (over non-empty channels) fraction
// of the 256 integer code points actually used, the metric behind the
// paper's DPR-vs-SFPR accuracy analysis (§VI-B: 15% for DPR vs 66% for
// SFPR on small-range channels).
func RangeUtilization(vals []int8, sh tensor.Shape) float64 {
	hw := sh.H * sh.W
	var total float64
	channels := 0
	for c := 0; c < sh.C; c++ {
		used := map[int8]bool{}
		any := false
		for n := 0; n < sh.N; n++ {
			base := (n*sh.C + c) * hw
			for i := 0; i < hw; i++ {
				v := vals[base+i]
				used[v] = true
				if v != 0 {
					any = true
				}
			}
		}
		if !any {
			continue
		}
		total += float64(len(used)) / 256
		channels++
	}
	if channels == 0 {
		return 0
	}
	return total / float64(channels)
}
