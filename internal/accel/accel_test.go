package accel

import (
	"math"
	"testing"
	"testing/quick"

	"jpegact/internal/data"
	"jpegact/internal/dct"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func TestByteFIFO(t *testing.T) {
	f := NewByteFIFO(8)
	if !f.CanPush(8) || f.CanPush(9) {
		t.Fatal("capacity accounting wrong")
	}
	f.Push([]byte{1, 2, 3})
	f.Push([]byte{4, 5})
	if f.Len() != 5 {
		t.Fatalf("len %d", f.Len())
	}
	head, err := f.Peek(2)
	if err != nil || head[0] != 1 || head[1] != 2 {
		t.Fatalf("peek %v %v", head, err)
	}
	got, err := f.Pop(4)
	if err != nil || got[3] != 4 {
		t.Fatalf("pop %v %v", got, err)
	}
	if _, err := f.Pop(2); err != ErrUnderflow {
		t.Fatalf("want underflow, got %v", err)
	}
}

func TestByteFIFOOverflowPanics(t *testing.T) {
	f := NewByteFIFO(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Push([]byte{1, 2, 3})
}

func TestBlockZVCRoundtrip(t *testing.T) {
	r := tensor.NewRNG(1)
	f := func(sparsity uint8) bool {
		var q [64]int8
		for i := range q {
			if r.Float64() >= float64(sparsity%101)/100 {
				v := r.Intn(255) - 127
				if v == 0 {
					v = 1
				}
				q[i] = int8(v)
			}
		}
		enc := encodeBlockZVC(&q)
		if len(enc) != blockSizeFromMask(enc[:8]) {
			return false
		}
		return decodeBlockZVC(enc) == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randBlocks(seed uint64, n int) [][64]float32 {
	r := tensor.NewRNG(seed)
	plane := data.ActivationLike(r, 8, 8*n, 0.5, 1.0)
	out := make([][64]float32, n)
	for b := 0; b < n; b++ {
		for row := 0; row < 8; row++ {
			copy(out[b][row*8:(row+1)*8], plane[row*8*n+b*8:row*8*n+b*8+8])
		}
	}
	return out
}

func maxAbsBlocks(blocks [][64]float32) float32 {
	var m float32
	for i := range blocks {
		for _, v := range blocks[i] {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
	}
	return m
}

// sfprCodes is the SFPR stage upstream of the code-block path: every block
// cast with one channel scale, saturating like the SPE (§III-B).
func sfprCodes(blocks [][64]float32, sc float32) [][64]int8 {
	out := make([][64]int8, len(blocks))
	for b := range blocks {
		for i, v := range blocks[b] {
			out[b][i] = quant.RoundSat64(float64(v) * float64(sc) * 128)
		}
	}
	return out
}

func TestCompressDecompressRoundtrip(t *testing.T) {
	blocks := randBlocks(2, 37)
	sc := float32(1.125) / maxAbsBlocks(blocks)
	for _, ncdu := range []int{1, 4, 8} {
		a := New(ncdu, quant.OptL())
		s := a.CompressCodes(sfprCodes(blocks, sc))
		if s.Blocks != 37 {
			t.Fatalf("blocks %d", s.Blocks)
		}
		rec, cycles := a.DecompressCodes(s)
		if len(rec) != 37 || cycles <= 0 {
			t.Fatalf("rec %d cycles %d", len(rec), cycles)
		}
		// Reconstruction error bounded by SFPR step + SH quantization.
		var worst float64
		for b := range blocks {
			for i := range blocks[b] {
				d := math.Abs(float64(float32(rec[b][i])/(sc*128) - blocks[b][i]))
				if d > worst {
					worst = d
				}
			}
		}
		scale := float64(maxAbsBlocks(blocks))
		if worst > scale*0.25 {
			t.Fatalf("ncdu=%d worst error %v vs scale %v", ncdu, worst, scale)
		}
	}
}

func TestStreamFraming(t *testing.T) {
	blocks := randBlocks(3, 10)
	sc := float32(1.0) / maxAbsBlocks(blocks)
	a := New(4, quant.OptH())
	s := a.CompressCodes(sfprCodes(blocks, sc))
	for i, p := range s.Packets {
		if len(p) != PacketBytes {
			t.Fatalf("packet %d size %d", i, len(p))
		}
	}
	// True bytes fit within the packets, with less than one packet of pad.
	if s.Bytes > len(s.Packets)*PacketBytes || len(s.Packets)*PacketBytes-s.Bytes >= PacketBytes {
		t.Fatalf("framing: %d bytes in %d packets", s.Bytes, len(s.Packets))
	}
	if fp32 := s.Blocks * 64 * 4; s.Bytes >= fp32 {
		t.Fatalf("%d bytes for %d of fp32", s.Bytes, fp32)
	}
}

func TestCyclesModel(t *testing.T) {
	blocks := randBlocks(4, 64)
	codes := sfprCodes(blocks, float32(1.0)/maxAbsBlocks(blocks))
	t1 := New(1, quant.OptH()).CompressCodes(codes).Cycles
	t4 := New(4, quant.OptH()).CompressCodes(codes).Cycles
	t8 := New(8, quant.OptH()).CompressCodes(codes).Cycles
	// 64 blocks: 1 CDU = 512 + latency; 4 CDUs = 128 + latency.
	if t1 != 64*CyclesPerBlockLoad+pipelineLatency {
		t.Fatalf("t1 = %d", t1)
	}
	if t4 != 16*CyclesPerBlockLoad+pipelineLatency {
		t.Fatalf("t4 = %d", t4)
	}
	if !(t8 < t4 && t4 < t1) {
		t.Fatalf("cycles not scaling: %d %d %d", t1, t4, t8)
	}
	// Per-CDU ingest: 256 B per 8 cycles = 32 B/cycle (§III-G).
	if tp := float64(len(codes)*64*4) / float64(t1); tp < 28 || tp > 32.5 {
		t.Fatalf("single-CDU throughput %v B/cycle", tp)
	}
}

func TestHigherQuantizationCompressesMore(t *testing.T) {
	blocks := randBlocks(5, 32)
	sc := float32(1.125) / maxAbsBlocks(blocks)
	l := New(4, quant.OptL()).CompressCodes(sfprCodes(blocks, sc))
	h := New(4, quant.OptH()).CompressCodes(sfprCodes(blocks, sc))
	if h.Bytes >= l.Bytes {
		t.Fatalf("optH %dB should beat optL %dB", h.Bytes, l.Bytes)
	}
}

func TestAccelMatchesSoftwarePipeline(t *testing.T) {
	// The hardware fixed-point path must agree with the float functional
	// pipeline within the Q13 rounding budget: compare quantized blocks.
	blocks := randBlocks(6, 16)
	codes := sfprCodes(blocks, float32(1.125)/maxAbsBlocks(blocks))
	a := New(4, quant.OptL())
	mismatch := 0
	total := 0
	for bi := range codes {
		_, qHW := a.compressCodeBlock(&codes[bi])
		// Software: same SFPR codes, float DCT, SH quantize.
		var fb [64]float32
		for i, v := range codes[bi] {
			fb[i] = float32(v)
		}
		var dctBlk [64]float32
		copy(dctBlk[:], fb[:])
		blkp := (*[64]float32)(&dctBlk)
		forward8x8Float(blkp)
		var qSW [64]int8
		d := quant.OptL()
		quant.ShiftQuantizeFloat(blkp, &d, &qSW)
		for i := range qHW {
			total++
			diff := int(qHW[i]) - int(qSW[i])
			if diff < -1 || diff > 1 {
				t.Fatalf("block %d coeff %d: hw %d sw %d", bi, i, qHW[i], qSW[i])
			}
			if diff != 0 {
				mismatch++
			}
		}
	}
	if float64(mismatch)/float64(total) > 0.10 {
		t.Fatalf("too many ±1 rounding mismatches: %d/%d", mismatch, total)
	}
}

// forward8x8Float adapts dct.Forward8x8 to a flat array.
func forward8x8Float(b *[64]float32) {
	var db dct.Block
	copy(db[:], b[:])
	dct.Forward8x8(&db)
	copy(b[:], db[:])
}

func TestDecompressPanicsOnTruncatedStream(t *testing.T) {
	blocks := randBlocks(7, 8)
	sc := float32(1.0) / maxAbsBlocks(blocks)
	a := New(2, quant.OptH())
	s := a.CompressCodes(sfprCodes(blocks, sc))
	s.Packets = s.Packets[:0]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on truncated stream")
		}
	}()
	a.DecompressCodes(s)
}
