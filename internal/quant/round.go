package quant

import "math"

// The cast every lossy stage of the codec ends in — SFPR's integer cast
// (Eqn. 5), the DIV and SH quantizers, the code-grid clamp after the
// inverse DCT — is round half away from zero, then saturate to int8.
// The textbook form branches on the sign (v >= 0 ? v+0.5 : v-0.5), and
// on zero-mean codes that branch is a coin flip the predictor loses half
// the time. Here the sign bit of v is OR-ed into the constant 0.5
// (copysign) and the sum is truncated: no data-dependent control.
//
// Bit-exactness with the branchy form: for every input the helper
// executes the same single float add (v + 0.5 or v + -0.5 ≡ v - 0.5)
// and the same float→int32 conversion, so it agrees wherever that
// conversion is defined. -0 takes the other constant (-0 - 0.5 instead
// of -0 + 0.5) but both truncate to 0. NaN and |v| ≥ 2³¹ are outside
// what Go defines for float→int conversion; because the add and the
// conversion instruction are the same, the helper still agrees with the
// branchy form on any one GOARCH (amd64: both give -128), though not
// necessarily across architectures.

// RoundSat64 rounds f half away from zero and saturates to int8.
func RoundSat64(f float64) int8 {
	const signBit = 1 << 63
	half := math.Float64frombits(math.Float64bits(f)&signBit | 0x3FE0000000000000)
	return clipInt8(int32(f + half))
}

// RoundSat32 is RoundSat64 for float32, with the add in float32.
func RoundSat32(v float32) int8 {
	const signBit = 1 << 31
	half := math.Float32frombits(math.Float32bits(v)&signBit | 0x3F000000)
	return clipInt8(int32(v + half))
}

// clipInt8 saturates v to the int8 range (min/max compile to conditional
// moves, not branches).
func clipInt8(v int32) int8 {
	return int8(min(max(v, -128), 127))
}
