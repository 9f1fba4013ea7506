package dct

import "math"

// NormBasis2D[i][j] is the JPEG-normalized 2D DCT basis: coefficient
// i = 8u+v of a block x (row-major j = 8r+c) is Σ_j x[j]·NormBasis2D[i][j],
// and synthesis is the transpose of the same matrix. Built from the
// definition, independent of the fast kernels: quant's folded-table tests
// use it as their oracle, and the package's tests pin it to the O(n²)
// reference.
var NormBasis2D = func() (b [64][64]float32) {
	var ct [8][8]float64 // c(k)/2 · cos((2n+1)kπ/16)
	for k := 0; k < 8; k++ {
		ck := 1.0
		if k == 0 {
			ck = 1 / math.Sqrt2
		}
		for n := 0; n < 8; n++ {
			ct[k][n] = ck / 2 * math.Cos(float64(2*n+1)*float64(k)*math.Pi/16)
		}
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			for r := 0; r < 8; r++ {
				for c := 0; c < 8; c++ {
					b[u*8+v][r*8+c] = float32(ct[u][r] * ct[v][c])
				}
			}
		}
	}
	return
}()
