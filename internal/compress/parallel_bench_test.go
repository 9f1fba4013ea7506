package compress

import (
	"testing"

	"jpegact/internal/data"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// Block-pipeline micro-benchmarks (`make bench`): the
// quantize / reconstruct / full-roundtrip costs of the JPEG-ACT pipeline
// on a realistic dense activation (4×16×32×32 → 1024 8×8 blocks).

func benchActivation() *tensor.Tensor {
	r := tensor.NewRNG(1)
	return data.ActivationTensor(r, 4, 16, 32, 32, 0.5, 1.0)
}

func BenchmarkQuantizeBlocks(b *testing.B) {
	x := benchActivation()
	p := JPEGAct(quant.OptH())
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.QuantizeBlocks(x)
	}
}

func BenchmarkReconstructBlocks(b *testing.B) {
	x := benchActivation()
	p := JPEGAct(quant.OptH())
	blocks, scales, info := p.QuantizeBlocks(x)
	b.SetBytes(int64(x.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ReconstructBlocks(blocks, scales, info)
	}
}
