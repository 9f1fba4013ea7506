package compress

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"jpegact/internal/coding"
	"jpegact/internal/dct"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// The fused per-block path (gather with the SFPR cast → AAN →
// folded quantize, and its inverse) must be bit-identical to the unfused
// padded-plane reference: both run the same float32 op sequence per
// block, so equality is exact, not approximate. These tests pin the
// production path against the reference in unfused_test.go across DQT
// backends, shift settings and pad-fringe geometries.

func fusedTestTensor(sh tensor.Shape, seed uint64) *tensor.Tensor {
	r := tensor.NewRNG(seed)
	x := tensor.New(sh.N, sh.C, sh.H, sh.W)
	for i := range x.Data {
		switch i % 7 {
		case 0:
			x.Data[i] = 0 // exercise ZVC-friendly zeros
		default:
			x.Data[i] = float32(r.Norm() * 3)
		}
	}
	return x
}

func fusedTestPipelines() []Pipeline {
	var ps []Pipeline
	// DIV backend over representative division tables.
	for _, q := range []int{10, 50, 90} {
		ps = append(ps, Pipeline{DQT: quant.JPEGQuality(q), S: sfpr.DefaultS})
	}
	// SH backend over every shift-log setting 2^0..2^7 (uniform tables
	// hit each 3-bit shift mode), plus a mixed table.
	for s := 0; s < 8; s++ {
		v := float64(int(1) << s)
		ps = append(ps, Pipeline{DQT: quant.Uniform(fmt.Sprintf("sh%d", s), 8, v), UseShift: true, S: sfpr.DefaultS})
	}
	ps = append(ps, Pipeline{DQT: quant.JPEGQuality(50), UseShift: true, S: sfpr.DefaultS})
	return ps
}

func fusedTestShapes() []tensor.Shape {
	return []tensor.Shape{
		{N: 1, C: 1, H: 8, W: 8},   // exactly one block
		{N: 2, C: 3, H: 16, W: 16}, // aligned, multi-plane
		{N: 1, C: 2, H: 5, W: 7},   // pad on both axes
		{N: 1, C: 1, H: 9, W: 13},  // pad, blocks cross channel rows
		{N: 3, C: 1, H: 8, W: 10},  // pad columns only
		{N: 1, C: 4, H: 3, W: 8},   // pad rows only
		{N: 1, C: 1, H: 1, W: 1},   // degenerate single element
	}
}

func quantizeBoth(t *testing.T, p *Pipeline, x *tensor.Tensor) ([][64]int8, []float32, tensor.PadInfo, [][64]int8) {
	t.Helper()
	fq, fs, info := p.QuantizeBlocks(x)
	uq, us, _ := p.quantizeBlocksUnfused(x)
	if len(fs) != len(us) {
		t.Fatalf("scale count mismatch: %d vs %d", len(fs), len(us))
	}
	for i := range fs {
		if math.Float32bits(fs[i]) != math.Float32bits(us[i]) {
			t.Fatalf("scale %d differs: %v vs %v", i, fs[i], us[i])
		}
	}
	return fq, fs, info, uq
}

func TestFusedQuantizeBitIdenticalToUnfused(t *testing.T) {
	for _, p := range fusedTestPipelines() {
		for si, sh := range fusedTestShapes() {
			p := p
			x := fusedTestTensor(sh, uint64(100+si))
			fq, _, _, uq := quantizeBoth(t, &p, x)
			if len(fq) != len(uq) {
				t.Fatalf("%s %v: block count %d vs %d", p.DQT.Name, sh, len(fq), len(uq))
			}
			for b := range fq {
				if fq[b] != uq[b] {
					t.Fatalf("%s shift=%v %v: block %d differs\nfused   %v\nunfused %v",
						p.DQT.Name, p.UseShift, sh, b, fq[b], uq[b])
				}
			}
		}
	}
}

func TestFusedReconstructBitIdenticalToUnfused(t *testing.T) {
	for _, p := range fusedTestPipelines() {
		for si, sh := range fusedTestShapes() {
			p := p
			x := fusedTestTensor(sh, uint64(200+si))
			fq, fs, info, uq := quantizeBoth(t, &p, x)
			frec := p.ReconstructBlocks(fq, fs, info)
			urec := p.reconstructBlocksUnfused(uq, fs, info)
			if frec.Shape != urec.Shape {
				t.Fatalf("%s %v: shape %v vs %v", p.DQT.Name, sh, frec.Shape, urec.Shape)
			}
			for i := range frec.Data {
				if math.Float32bits(frec.Data[i]) != math.Float32bits(urec.Data[i]) {
					t.Fatalf("%s shift=%v %v: sample %d differs: %v vs %v",
						p.DQT.Name, p.UseShift, sh, i, frec.Data[i], urec.Data[i])
				}
			}
		}
	}
}

// FuzzFusedBlockPath drives the fused-vs-unfused equivalence over
// arbitrary shapes (including heavy pad fringes) and data seeds.
func FuzzFusedBlockPath(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(8), uint8(8), int64(1), false)
	f.Add(uint8(2), uint8(3), uint8(5), uint8(7), int64(2), true)
	f.Add(uint8(1), uint8(2), uint8(17), uint8(9), int64(3), true)
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), int64(4), false)
	f.Fuzz(func(t *testing.T, n, c, h, w uint8, seed int64, shift bool) {
		sh := tensor.Shape{
			N: 1 + int(n%3),
			C: 1 + int(c%4),
			H: 1 + int(h%20),
			W: 1 + int(w%20),
		}
		x := fusedTestTensor(sh, uint64(seed))
		p := Pipeline{DQT: quant.JPEGQuality(50), UseShift: shift, S: sfpr.DefaultS}
		fq, fs, info, uq := quantizeBoth(t, &p, x)
		for b := range fq {
			if fq[b] != uq[b] {
				t.Fatalf("shape %v shift=%v: block %d differs", sh, shift, b)
			}
		}
		frec := p.ReconstructBlocks(fq, fs, info)
		urec := p.reconstructBlocksUnfused(uq, fs, info)
		for i := range frec.Data {
			if math.Float32bits(frec.Data[i]) != math.Float32bits(urec.Data[i]) {
				t.Fatalf("shape %v shift=%v: sample %d differs", sh, shift, i)
			}
		}
	})
}

// TestGatherScatterRoundtrip holds the block layout itself: gathering
// every 8×8 tile of a plane of codes at unit scale zero-fills exactly the
// pad fringe, and scattering the tiles back at unit scale drops it and
// returns the codes, on aligned and unaligned shapes alike.
func TestGatherScatterRoundtrip(t *testing.T) {
	r := tensor.NewRNG(11)
	for _, sh := range fusedTestShapes() {
		info := tensor.BlockPadInfo(sh, 8)
		rows := sh.N * sh.C * sh.H
		x := tensor.New(sh.N, sh.C, sh.H, sh.W)
		for i := range x.Data {
			x.Data[i] = float32(r.Intn(255) - 127)
			if x.Data[i] == 0 {
				x.Data[i] = 1 // a zero inside the plane is not fringe
			}
		}
		unit, unit128 := make([]float32, sh.N*sh.C), make([]float64, sh.N*sh.C)
		for i := range unit {
			unit[i], unit128[i] = 1, 1
		}
		out := make([]float32, len(x.Data))
		var blk dct.Block
		for by := 0; by < info.BlockRows/8; by++ {
			for bx := 0; bx < info.BlockCols/8; bx++ {
				GatherBlock(x, unit128, by, bx, &blk)
				for i, v := range blk {
					if inside := by*8+i/8 < rows && bx*8+i%8 < sh.W; inside == (v == 0) {
						t.Fatalf("%v block (%d,%d) lane %d: %v, inside plane %v", sh, by, bx, i, v, inside)
					}
				}
				ScatterBlock(&blk, by, bx, sh, unit, out)
			}
		}
		for i, v := range x.Data {
			if out[i] != v {
				t.Fatalf("%v: element %d came back %v, want %v", sh, i, out[i], v)
			}
		}
	}
}

// TestFusedDriversMatchBlocksView holds the fused drivers to the blocks
// view the unfused references pin above: Encode's stream is the ZVC
// coding of QuantizeBlocks' blocks byte for byte, and DecodeInto, into a
// NaN-filled destination, writes exactly ReconstructBlocks' tensor —
// over every backend, the pad-fringe shapes, a stream several ZVC shards
// long whose blocks cross plane boundaries (H = 5), and at one and three
// workers.
func TestFusedDriversMatchBlocksView(t *testing.T) {
	shapes := append(fusedTestShapes(), tensor.Shape{N: 4, C: 9, H: 5, W: 40})
	for _, workers := range []int{1, 3} {
		prev := parallel.SetWorkers(workers)
		for _, p := range fusedTestPipelines() {
			for si, sh := range shapes {
				p := p
				x := fusedTestTensor(sh, uint64(300+si))
				blocks, scales, info := p.QuantizeBlocks(x)
				want := coding.EncodeZVCBlocks(blocks)
				rec := p.ReconstructBlocks(blocks, scales, info)

				got, gotScales := p.Encode(x)
				if !bytes.Equal(got, want) || !slices.Equal(gotScales, scales) {
					t.Fatalf("%s %v at %d workers: Encode differs from the blocks view", p.DQT.Name, sh, workers)
				}
				dst := tensor.New(sh.N, sh.C, sh.H, sh.W)
				dst.Fill(float32(math.NaN()))
				if err := p.DecodeInto(got, gotScales, dst); err != nil {
					t.Fatalf("%s %v: %v", p.DQT.Name, sh, err)
				}
				for i, v := range rec.Data {
					if math.Float32bits(v) != math.Float32bits(dst.Data[i]) {
						t.Fatalf("%s %v at %d workers: element %d: DecodeInto %v, ReconstructBlocks %v",
							p.DQT.Name, sh, workers, i, dst.Data[i], v)
					}
				}
			}
		}
		parallel.SetWorkers(prev)
	}
}
