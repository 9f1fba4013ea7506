package coding

import (
	"encoding/binary"
	"math"
)

// ZVC over float32 values, cDMA+'s coder (Rhu et al.): per group of
// eight values one mask byte, bit j set when value j is not +0, then the
// little-endian bits of each such value. A value is zero by its bits, so
// −0 is stored like any other value and the coder is lossless. The size
// is ⌈n/8⌉ + 4 bytes per value that is not +0.

// EncodeZVC32 compresses vals (any length; the tail group may be short).
func EncodeZVC32(vals []float32) []byte {
	nz := 0
	for _, v := range vals {
		if math.Float32bits(v) != 0 {
			nz++
		}
	}
	out := make([]byte, 0, (len(vals)+7)/8+4*nz)
	for g := 0; g < len(vals); g += 8 {
		m := len(out)
		out = append(out, 0)
		for j, v := range vals[g:min(g+8, len(vals))] {
			if b := math.Float32bits(v); b != 0 {
				out[m] |= 1 << j
				out = binary.LittleEndian.AppendUint32(out, b)
			}
		}
	}
	return out
}

// DecodeZVC32Into reverses EncodeZVC32 into dst, whose length is the
// value count; every element is written. A stream that ends early, sets a
// mask bit past a short tail group, or carries bytes past its last group
// is corrupt.
func DecodeZVC32Into(dst []float32, data []byte) error {
	p := 0
	for g := 0; g < len(dst); g += 8 {
		grp := dst[g:min(g+8, len(dst))]
		if p >= len(data) || data[p]>>len(grp) != 0 {
			return ErrCorrupt
		}
		m := data[p]
		p++
		for j := range grp {
			var b uint32
			if m&(1<<j) != 0 {
				if p+4 > len(data) {
					return ErrCorrupt
				}
				b = binary.LittleEndian.Uint32(data[p:])
				p += 4
			}
			grp[j] = math.Float32frombits(b)
		}
	}
	if p != len(data) {
		return ErrCorrupt
	}
	return nil
}
