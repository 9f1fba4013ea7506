package dct

import "math"

// The direct O(n²) DCT-II/DCT-III in the JPEG normalization: the
// correctness reference every fast transform is checked against.

// cosTable[k][n] = c(k)/2 * cos((2n+1)kπ/16)
var cosTable [8][8]float64

func init() {
	for k := 0; k < 8; k++ {
		ck := 1.0
		if k == 0 {
			ck = 1 / math.Sqrt2
		}
		for n := 0; n < 8; n++ {
			cosTable[k][n] = ck / 2 * math.Cos(float64(2*n+1)*float64(k)*math.Pi/16)
		}
	}
}

// Naive1D computes the reference 8-point forward DCT of in into out.
func Naive1D(in, out *[8]float64) {
	for k := 0; k < 8; k++ {
		var sum float64
		for n := 0; n < 8; n++ {
			sum += in[n] * cosTable[k][n]
		}
		out[k] = sum
	}
}

// NaiveInverse1D computes the reference 8-point inverse DCT of in into out.
func NaiveInverse1D(in, out *[8]float64) {
	for n := 0; n < 8; n++ {
		var sum float64
		for k := 0; k < 8; k++ {
			sum += in[k] * cosTable[k][n]
		}
		out[n] = sum
	}
}

// NaiveForward8x8 applies the reference 2D forward DCT in place.
func NaiveForward8x8(b *Block) {
	transform2D(b, Naive1D)
}

// NaiveInverse8x8 applies the reference 2D inverse DCT in place.
func NaiveInverse8x8(b *Block) {
	transform2D(b, NaiveInverse1D)
}

func transform2D(b *Block, f func(in, out *[8]float64)) {
	var in, out [8]float64
	var tmp [64]float64
	// Pass 1: rows.
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			in[c] = float64(b[r*8+c])
		}
		f(&in, &out)
		copy(tmp[r*8:], out[:])
	}
	// Pass 2: columns (transpose, transform, transpose back).
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			in[r] = tmp[r*8+c]
		}
		f(&in, &out)
		for r := 0; r < 8; r++ {
			b[r*8+c] = float32(out[r])
		}
	}
}
