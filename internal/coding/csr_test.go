package coding

// The CSR coder itself: the oracle for CSRSize, which is all the product
// needs of it.

// EncodeCSR compresses vals viewed as rows of the given width. Rows must
// divide len(vals) evenly and width must be ≤ 256 so column indices fit
// in a byte (wider activations are split by the caller).
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

// DecodeCSR reverses EncodeCSR; n is the original value count.
func DecodeCSR(data []byte, n int) ([]int8, error) {
	if len(data) < 1 {
		return nil, ErrCorrupt
	}
	width := int(data[0]) + 1
	if n%width != 0 {
		return nil, ErrCorrupt
	}
	rows := n / width
	out := make([]int8, n)
	p := 1
	for r := 0; r < rows; r++ {
		if p+2 > len(data) {
			return nil, ErrCorrupt
		}
		nz := int(data[p]) | int(data[p+1])<<8
		p += 2
		if p+2*nz > len(data) || nz > width {
			return nil, ErrCorrupt
		}
		for k := 0; k < nz; k++ {
			c := int(data[p])
			v := int8(data[p+1])
			p += 2
			if c >= width {
				return nil, ErrCorrupt
			}
			out[r*width+c] = v
		}
	}
	return out, nil
}
