package compress

import (
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// Extra methods beyond the paper's main Table I set: the BFP baseline of
// Courbariaux et al. (§II-B2) and a hardware-backed JPEG-ACT (see
// hardware.go) for cross-checking the RTL-level datapath against the
// functional pipeline during training.

// BFPMethod applies Block Floating Point: per-channel shared power-of-two
// exponents with 10-bit fixed-point mantissas (Courbariaux's setting).
type BFPMethod struct{}

const bfpManBits = 10

// Name implements Method.
func (BFPMethod) Name() string { return "BFP" }

// Lossless implements Method.
func (BFPMethod) Lossless() bool { return false }

// Compress implements Method: every kind is reduced to the shared-
// exponent fixed-point form; storage is the mantissa bits per value plus
// one exponent byte per channel.
func (BFPMethod) Compress(x *tensor.Tensor, _ Kind, _ int) Result {
	rec := sfpr.BFP(x, bfpManBits)
	bytes := (x.Elems()*bfpManBits+7)/8 + x.Shape.C
	return Result{Recovered: rec, CompressedBytes: bytes, OriginalBytes: x.Bytes()}
}
