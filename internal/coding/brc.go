package coding

import "jpegact/internal/parallel"

// Binary ReLU Compression (BRC, §II-B1): a ReLU activation that is not
// consumed by a following conv layer only needs its sign in the backward
// pass, because ∇x = (x > 0) ? ∇r : 0 (Eqn. 3). BRC therefore stores one
// bit per element — a fixed 32× compression over float32.

// brcGrain is the number of 8-element groups per parallel shard.
const brcGrain = 1024

// EncodeBRC returns the (x > 0) mask of vals twice over: packed one bit
// per element, LSB first within each byte — what is stored and
// accounted — and as the []bool the backward pass applies, built in the
// same pass (mask is packed, expanded). Groups of eight elements are
// independent, so they shard over the worker pool; the comparison result
// is used as a value, never branched on.
func EncodeBRC(vals []float32) (packed []byte, mask []bool) {
	n := len(vals)
	packed = make([]byte, (n+7)/8)
	mask = make([]bool, n)
	parallel.For(n/8, brcGrain, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			v := vals[g*8 : g*8+8 : g*8+8]
			m := mask[g*8 : g*8+8 : g*8+8]
			var b byte
			for j := range v {
				pos := v[j] > 0
				m[j] = pos
				b |= bit(pos) << (uint(j) & 7)
			}
			packed[g] = b
		}
	})
	for i := n &^ 7; i < n; i++ {
		pos := vals[i] > 0
		mask[i] = pos
		packed[i/8] |= bit(pos) << uint(i%8)
	}
	return packed, mask
}

// bit converts a bool to 0 or 1 (a flag-to-register move, not a branch).
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}
