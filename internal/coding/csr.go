package coding

// Compressed Sparse Row storage as used by GIST's "Sparse Storage Dense
// Compute" (§II-B2, §VI-B): after 8-bit precision reduction, non-zero
// values are stored together with an 8-bit column index, plus a per-row
// element count. When sparsity is below 50% this is *larger* than the
// dense 8-bit form, which is exactly the pathology Table I shows for
// ResNets on ImageNet.

// EncodeCSR compresses vals viewed as rows of the given width: one byte
// holding width−1, then per row a 16-bit non-zero count and a (column,
// value) byte pair per non-zero — 1 + 2·rows + 2·non-zeros bytes. Rows
// must divide len(vals) evenly and width must be ≤ 256 so column indices
// fit in a byte (wider activations are split by the caller).
func EncodeCSR(vals []int8, width int) []byte {
	if width <= 0 || width > 256 || len(vals)%width != 0 {
		panic("coding: CSR width must be in (0,256] and divide the value count")
	}
	rows := len(vals) / width
	out := make([]byte, 0, len(vals)/2+2*rows+8)
	out = append(out, byte(width-1)) // width-1 so 256 fits a byte
	for r := 0; r < rows; r++ {
		row := vals[r*width : (r+1)*width]
		nz := 0
		for _, v := range row {
			if v != 0 {
				nz++
			}
		}
		out = append(out, byte(nz), byte(nz>>8))
		for c, v := range row {
			if v != 0 {
				out = append(out, byte(c), byte(v))
			}
		}
	}
	return out
}

// DecodeCSRInto reverses EncodeCSR into dst, whose length is the value
// count; every element is written. A stream that ends early, names a
// column past its width, or carries bytes past its last row is corrupt.
func DecodeCSRInto(dst []int8, data []byte) error {
	if len(data) < 1 {
		return ErrCorrupt
	}
	width := int(data[0]) + 1
	if len(dst)%width != 0 {
		return ErrCorrupt
	}
	clear(dst)
	p := 1
	for r := 0; r < len(dst)/width; r++ {
		if p+2 > len(data) {
			return ErrCorrupt
		}
		nz := int(data[p]) | int(data[p+1])<<8
		p += 2
		if p+2*nz > len(data) || nz > width {
			return ErrCorrupt
		}
		for k := 0; k < nz; k++ {
			c := int(data[p])
			if c >= width {
				return ErrCorrupt
			}
			dst[r*width+c] = int8(data[p+1])
			p += 2
		}
	}
	if p != len(data) {
		return ErrCorrupt
	}
	return nil
}
