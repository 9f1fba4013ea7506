package nn

import "jpegact/internal/parallel"

// Reference saxpy GEMM kernels: the original k-outer implementations,
// the bit-identity oracle for the packed kernels in gemm.go (per C
// element both run the same ascending-k float32 op sequence, so equality
// is exact, not approximate). The product is written float32(av*b) here
// as there: an explicit conversion rounds, so a toolchain that fuses
// x*y+z (arm64, GOAMD64=v3) computes the same bits as one that does not.
// It is plain IEEE saxpy: every product is added, so a zero in A adds its
// ±0 and 0·Inf = NaN propagates.

// gemmSaxpy computes C += A·B with the k-outer row-broadcast kernel.
// Rows of C are distributed over the worker pool; each row is computed
// entirely by one worker in the serial summation order, so the result is
// bit-identical to the single-threaded kernel at any worker count.
func gemmSaxpy(m, k, n int, a, b, c []float32) {
	parallel.For(m, parallel.Grain(k*n, gemmMinWork), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			crow := c[i*n : (i+1)*n]
			for kk := 0; kk < k; kk++ {
				av := arow[kk]
				brow := b[kk*n : (kk+1)*n]
				for j := range brow {
					crow[j] += float32(av * brow[j])
				}
			}
		}
	})
}

// gemmTASaxpy computes C += Aᵀ·B where A is stored K×M. Workers own
// disjoint row ranges of C; within a range the k loop stays outermost,
// so every C element accumulates in ascending-k order exactly as the
// serial kernel does.
func gemmTASaxpy(m, k, n int, a, b, c []float32) {
	parallel.For(m, parallel.Grain(k*n, gemmMinWork), func(lo, hi int) {
		for kk := 0; kk < k; kk++ {
			arow := a[kk*m : (kk+1)*m]
			brow := b[kk*n : (kk+1)*n]
			for i := lo; i < hi; i++ {
				av := arow[i]
				crow := c[i*n : (i+1)*n]
				for j := range brow {
					crow[j] += float32(av * brow[j])
				}
			}
		}
	})
}

// gemmTBSaxpy computes C += A·Bᵀ where B is stored N×K: one dot product
// per C element, full-k ascending sum from zero, one add into C.
func gemmTBSaxpy(m, k, n int, a, b, c []float32) {
	parallel.For(m, parallel.Grain(k*n, gemmMinWork), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			crow := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b[j*k : (j+1)*k]
				var sum float32
				for kk := range arow {
					sum += float32(arow[kk] * brow[kk])
				}
				crow[j] += sum
			}
		}
	})
}
