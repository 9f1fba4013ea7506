package coding

import (
	"bytes"
	"runtime"
	"testing"

	"jpegact/internal/parallel"
)

func makeTestBlocks(n int) [][64]int8 {
	blocks := make([][64]int8, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range blocks {
		for j := 0; j < 64; j++ {
			state = state*6364136223846793005 + 1442695040888963407
			// ~70% zeros, like shift-quantized DCT coefficients.
			if state>>61 < 3 {
				blocks[i][j] = int8(state >> 33)
			}
		}
	}
	return blocks
}

// The block encoder must produce the exact stream of the flat encoder —
// that is what makes pooled block encoding a drop-in replacement — and
// it must do so at every worker count.
func TestEncodeZVCBlocksMatchesFlat(t *testing.T) {
	for _, nb := range []int{0, 1, 7, 64, 65, 1000} {
		blocks := makeTestBlocks(nb)
		flat := make([]int8, 0, nb*64)
		for i := range blocks {
			flat = append(flat, blocks[i][:]...)
		}
		want := EncodeZVC(flat)
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			old := parallel.SetWorkers(w)
			got := EncodeZVCBlocks(blocks)
			if !bytes.Equal(got, want) {
				t.Fatalf("nb=%d workers=%d: block stream differs from flat stream", nb, w)
			}
			parallel.SetWorkers(old)
		}
	}
}

func TestDecodeZVCBlocksRoundtrip(t *testing.T) {
	for _, nb := range []int{0, 1, 7, 64, 65, 1000} {
		blocks := makeTestBlocks(nb)
		enc := EncodeZVCBlocks(blocks)
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			old := parallel.SetWorkers(w)
			dec, err := DecodeZVCBlocks(enc, nb)
			if err != nil {
				t.Fatalf("nb=%d workers=%d: decode error: %v", nb, w, err)
			}
			for i := range blocks {
				if dec[i] != blocks[i] {
					t.Fatalf("nb=%d workers=%d: block %d differs", nb, w, i)
				}
			}
			parallel.SetWorkers(old)
		}
	}
}

// DecodeZVCBlocksInto must fully overwrite dirty destination blocks.
func TestDecodeZVCBlocksIntoOverwritesDst(t *testing.T) {
	blocks := makeTestBlocks(10)
	enc := EncodeZVCBlocks(blocks)
	dst := make([][64]int8, 10)
	for i := range dst {
		for j := range dst[i] {
			dst[i][j] = -1
		}
	}
	if err := DecodeZVCBlocksInto(dst, enc); err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if dst[i] != blocks[i] {
			t.Fatalf("block %d not fully overwritten", i)
		}
	}
}

func TestDecodeZVCBlocksCorrupt(t *testing.T) {
	blocks := makeTestBlocks(4)
	enc := EncodeZVCBlocks(blocks)
	if _, err := DecodeZVCBlocks(enc[:len(enc)-1], 4); err != ErrCorrupt {
		t.Fatalf("truncated payload: got %v, want ErrCorrupt", err)
	}
	if _, err := DecodeZVCBlocks(nil, 4); err != ErrCorrupt {
		t.Fatalf("empty stream: got %v, want ErrCorrupt", err)
	}
	if _, err := DecodeZVCBlocks([]byte{0xFF}, 1); err != ErrCorrupt {
		t.Fatalf("missing mask payload: got %v, want ErrCorrupt", err)
	}
}

func BenchmarkEncodeZVCBlocks(b *testing.B) {
	blocks := makeTestBlocks(1024)
	b.SetBytes(int64(len(blocks) * 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeZVCBlocks(blocks)
	}
}

func BenchmarkDecodeZVCBlocks(b *testing.B) {
	blocks := makeTestBlocks(1024)
	enc := EncodeZVCBlocks(blocks)
	dst := make([][64]int8, len(blocks))
	b.SetBytes(int64(len(blocks) * 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeZVCBlocksInto(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}
