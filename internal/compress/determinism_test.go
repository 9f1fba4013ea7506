package compress

import (
	"runtime"
	"testing"

	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// Determinism is a correctness requirement for a compression codec: the
// compressed bytes and the recovered tensor must be identical whether
// the pipeline ran on 1 worker or N. These tests pin that contract for
// worker counts {1, 2, GOMAXPROCS}.

func workerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// sparseTensor fills a tensor with ~50% zeros and Gaussian values,
// without the multiple-of-8 shape restriction of data.ActivationTensor.
func sparseTensor(r *tensor.RNG, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	for i := range x.Data {
		if r.Float64() < 0.5 {
			x.Data[i] = float32(r.Norm())
		}
	}
	return x
}

func TestRoundtripDeterministicAcrossWorkers(t *testing.T) {
	r := tensor.NewRNG(7)
	for _, shape := range [][4]int{{2, 8, 16, 16}, {1, 3, 9, 11}, {4, 16, 32, 32}} {
		x := sparseTensor(r, shape[0], shape[1], shape[2], shape[3])
		for _, p := range []Pipeline{JPEGAct(quant.OptH()), {DQT: quant.JPEGQuality(80)}} {
			var refRec *tensor.Tensor
			var refBytes int
			for _, w := range workerCounts() {
				old := parallel.SetWorkers(w)
				rec, n := p.Roundtrip(x)
				parallel.SetWorkers(old)
				if refRec == nil {
					refRec, refBytes = rec, n
					continue
				}
				if n != refBytes {
					t.Fatalf("shape %v workers=%d: compressed size %d, want %d", shape, w, n, refBytes)
				}
				for i := range rec.Data {
					if rec.Data[i] != refRec.Data[i] {
						t.Fatalf("shape %v workers=%d: recovered value %d differs: %v vs %v",
							shape, w, i, rec.Data[i], refRec.Data[i])
					}
				}
			}
		}
	}
}

func TestQuantizeBlocksDeterministicAcrossWorkers(t *testing.T) {
	r := tensor.NewRNG(11)
	x := sparseTensor(r, 2, 4, 17, 19)
	p := JPEGAct(quant.OptH())
	var refBlocks [][64]int8
	var refScales []float32
	for _, w := range workerCounts() {
		old := parallel.SetWorkers(w)
		blocks, scales, _ := p.QuantizeBlocks(x)
		parallel.SetWorkers(old)
		if refBlocks == nil {
			refBlocks, refScales = blocks, scales
			continue
		}
		if len(blocks) != len(refBlocks) {
			t.Fatalf("workers=%d: %d blocks, want %d", w, len(blocks), len(refBlocks))
		}
		for i := range blocks {
			if blocks[i] != refBlocks[i] {
				t.Fatalf("workers=%d: block %d differs", w, i)
			}
		}
		for c := range scales {
			if scales[c] != refScales[c] {
				t.Fatalf("workers=%d: scale %d differs", w, c)
			}
		}
	}
}
