// Package sfpr implements the precision-reduction front ends of the paper:
//
//   - SFPR, Scaled Fix-point Precision Reduction (§III-B, Eqns. 4–5): the
//     paper's contribution. Activations are max-scaled per channel and cast
//     to signed 8-bit integers, normalizing every channel to the full
//     integer range before JPEG compression.
//   - DPR, Dynamic Precision Reduction (GIST): a straight cast to a
//     reduced-precision minifloat (8- or 16-bit), which under-utilizes the
//     representable range on small-magnitude channels.
package sfpr

import (
	"math"

	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// quantGrain is the minimum per-chunk element count for the parallel
// quantize/dequantize loops.
const quantGrain = 4096

// DefaultS is the global scaling factor selected in §III-B (Fig. 10): it
// minimizes the combined clipping+truncation error of SFPR, JPEG-BASE and
// JPEG-ACT and is shared across all networks and layers.
const DefaultS = 1.125

// Compressed is an SFPR-compressed activation: int8 values in the original
// NCHW order plus the per-channel scale factors needed for recovery.
type Compressed struct {
	Shape  tensor.Shape
	Values []int8
	Scales []float32 // sc per channel (Eqn. 4); 0 for all-zero channels
}

// Compress applies SFPR with global scale S to x.
func Compress(x *tensor.Tensor, s float64) *Compressed {
	out := &Compressed{Shape: x.Shape, Values: make([]int8, x.Elems()), Scales: make([]float32, x.Shape.C)}
	ComputeScales(x, s, out.Scales)
	QuantizeInto(x, out.Scales, out.Values)
	return out
}

// scaleFor is Eqn. 4: s over the channel max magnitude, 0 for an
// all-zero channel.
func scaleFor(maxAbs float32, s float64) float32 {
	if maxAbs > 0 {
		return float32(s / float64(maxAbs))
	}
	return 0
}

// ComputeScales fills scales (len = C) with the per-channel factors of
// Eqn. 4.
func ComputeScales(x *tensor.Tensor, s float64, scales []float32) {
	for c, m := range x.ChannelMaxAbs() {
		scales[c] = scaleFor(m, s)
	}
}

// QuantizeInto performs the integer cast of Eqn. 5 given precomputed
// per-channel scales, writing into vals (len = x.Elems()). The (n, c)
// planes shard over the worker pool, each one run of QuantizeRun.
func QuantizeInto(x *tensor.Tensor, scales []float32, vals []int8) {
	sh := x.Shape
	hw := sh.H * sh.W
	parallel.For(sh.N*sh.C, parallel.Grain(hw, quantGrain), func(lo, hi int) {
		QuantizeRun(x.Data, lo*hw, sh, scales, vals[lo*hw:hi*hw])
	})
}

// QuantizeRun casts one run of a tensor to its codes, the inverse of
// DequantizeRun: src is the data of a tensor of shape sh, vals receive
// the codes of its elements at flat offsets [lo, lo+len(vals)), and the
// run may cross planes. The offload codec casts a tensor one stack-sized
// run at a time through it and codes each run as it goes.
func QuantizeRun(src []float32, lo int, sh tensor.Shape, scales []float32, vals []int8) {
	hw := sh.H * sh.W
	for len(vals) > 0 {
		nc := lo / hw
		k := min(len(vals), (nc+1)*hw-lo)
		quantizePlane(src[lo:lo+k], scales[nc%sh.C], vals[:k])
		vals, lo = vals[k:], lo+k
	}
}

// quantizePlane casts one plane, or a run of one, with its channel's
// scale; the cast saturates rather than truncating (§III-B).
func quantizePlane(src []float32, sc float32, dst []int8) {
	// Hoisting sc·128 into float64 is bit-exact: the float32 product v·sc
	// is exactly representable in float64 (48-bit significand), and ·128
	// only shifts the exponent, so v·(sc·128) equals (v·sc)·128 computed
	// per element.
	sc128 := float64(sc) * 128
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = Code(v, sc128)
	}
}

// Code is the cast of Eqn. 5 for one element v of a channel whose scale
// times 128 is sc128 (float64(sc)·128, see quantizePlane). The JPEG-ACT
// encoder applies it as it gathers each 8×8 tile, so no code plane is
// materialized on that path.
func Code(v float32, sc128 float64) int8 {
	return quant.RoundSat64(float64(float64(v) * sc128))
}

// DequantizeInto writes the float recovery of vals into x using the
// inverse scales (backward-pass path of the SFPR unit). The (n, c) planes
// shard over the worker pool, each one run of DequantizeRun.
func DequantizeInto(vals []int8, scales []float32, x *tensor.Tensor) {
	sh := x.Shape
	hw := sh.H * sh.W
	parallel.For(sh.N*sh.C, parallel.Grain(hw, quantGrain), func(lo, hi int) {
		DequantizeRun(vals[lo*hw:hi*hw], lo*hw, sh, scales, x.Data)
	})
}

// DequantizeRun writes the float recovery of one run of codes: vals are
// the codes at flat offsets [lo, lo+len(vals)) of a tensor of shape sh,
// dst is that tensor's data, and the run may cross planes. The offload
// codec decodes a frame's payload one stack-sized run at a time and
// recovers each run straight into the restored tensor through it.
func DequantizeRun(vals []int8, lo int, sh tensor.Shape, scales []float32, dst []float32) {
	hw := sh.H * sh.W
	for len(vals) > 0 {
		nc := lo / hw
		k := min(len(vals), (nc+1)*hw-lo)
		var inv float32
		if sc := scales[nc%sh.C]; sc != 0 {
			inv = 1 / (sc * 128)
		}
		d := dst[lo : lo+k]
		for i, v := range vals[:len(d)] {
			d[i] = float32(v) * inv
		}
		vals, lo = vals[k:], lo+k
	}
}

// Minifloat describes a reduced-precision float format (DPR). The format
// is IEEE-like: 1 sign bit, ExpBits exponent bits with bias
// 2^(ExpBits-1)-1, ManBits mantissa bits, subnormals, saturating overflow.
type Minifloat struct {
	ExpBits uint
	ManBits uint
}

// FP8 is the e4m3 format used by 8-bit DPR.
var FP8 = Minifloat{ExpBits: 4, ManBits: 3}

// Quantize rounds v to the nearest representable value of the format,
// i.e. the value recovered after an encode/decode roundtrip.
func (m Minifloat) Quantize(v float32) float32 {
	if v == 0 || math.IsNaN(float64(v)) {
		return v
	}
	bias := float64(int(1)<<(m.ExpBits-1) - 1)
	maxExp := float64(int(1)<<m.ExpBits - 2)
	f := float64(v)
	sign := 1.0
	if f < 0 {
		sign = -1
		f = -f
	}
	exp := math.Floor(math.Log2(f))
	e := exp + bias
	scale := float64(int64(1) << m.ManBits)
	if e < 1 {
		// Subnormal: fixed quantum 2^(1-bias-ManBits).
		quantum := math.Pow(2, 1-bias) / scale
		q := math.Round(f / quantum)
		return float32(sign * q * quantum)
	}
	maxVal := math.Pow(2, maxExp-bias) * (2 - 1/scale)
	if e > maxExp {
		return float32(sign * maxVal) // saturate to the largest normal
	}
	quantum := math.Pow(2, exp) / scale
	r := math.Round(f/quantum) * quantum
	if r > maxVal {
		r = maxVal // rounding pushed past the top binade
	}
	return float32(sign * r)
}

// FP8Code returns the byte GIST's 8-bit DPR stores for v: the e4m3 code
// of FP8.Quantize(v) — sign bit, 4 exponent bits (bias 7, 0 for the
// subnormals), 3 mantissa bits. Exponent 15 is never a value (Quantize
// saturates at 240), so it codes NaN. FP8Value inverts it: for every v
// but NaN, FP8Value(FP8Code(v)) is FP8.Quantize(v) bit for bit, −0
// included.
func FP8Code(v float32) byte {
	q := FP8.Quantize(v)
	b := math.Float32bits(q)
	sign := byte(b>>24) & 0x80
	switch e := int(b>>23&0xff) - 127; {
	case q != q:
		return sign | 0x78
	case q == 0:
		return sign
	case e < -6: // a multiple of the subnormal quantum 2⁻⁹
		return sign | byte(math.Abs(float64(q))*512)
	default:
		return sign | byte(e+7)<<3 | byte(b>>20&7)
	}
}

// fp8Values is the value of every FP8 code.
var fp8Values = func() (t [256]float32) {
	for c := range t {
		m := float64(c & 7)
		v := m / 512
		switch e := c >> 3 & 15; e {
		case 15:
			v = math.NaN()
		case 0:
		default:
			v = (8 + m) * math.Ldexp(1, e-10)
		}
		if c&0x80 != 0 {
			v = -v
		}
		t[c] = float32(v)
	}
	return t
}()

// FP8Value decodes an FP8Code.
func FP8Value(c byte) float32 { return fp8Values[c] }
