package coding

// Compressed Sparse Row storage as used by GIST's "Sparse Storage Dense
// Compute" (§II-B2, §VI-B): after 8-bit precision reduction, non-zero
// values are stored together with an 8-bit column index, plus a per-row
// element count. When sparsity is below 50% this is *larger* than the
// dense 8-bit form, which is exactly the pathology Table I shows for
// ResNets on ImageNet. Only the size is ever needed (ratio accounting);
// the coder CSRSize is checked against lives in csr_test.go.

// CSRSize returns the encoded size in bytes of vals viewed as rows of
// the given width, which must be ≤ 256 so column indices fit in a byte
// (wider activations are split by the caller).
func CSRSize(vals []int8, width int) int {
	rows := len(vals) / width
	nz := 0
	for _, v := range vals {
		if v != 0 {
			nz++
		}
	}
	return 1 + 2*rows + 2*nz
}
