package coding

import (
	"testing"
	"testing/quick"

	"jpegact/internal/dct"
	"jpegact/internal/tensor"
)

func TestBitWriterReaderRoundtrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b101, 3)
	w.WriteBits(0b1, 1)
	w.WriteBits(0xABCD, 16)
	w.WriteBits(0b0110, 4)
	buf := w.Bytes()
	r := NewBitReader(buf)
	checks := []struct {
		n    uint
		want uint32
	}{{3, 0b101}, {1, 1}, {16, 0xABCD}, {4, 0b0110}}
	for i, c := range checks {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("read %d: got %x want %x", i, got, c.want)
		}
	}
}

func TestBitReaderPastEnd(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != ErrCorrupt {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestBitWriterPropertyRoundtrip(t *testing.T) {
	f := func(vals []uint16, widths []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var w BitWriter
		type item struct {
			v uint32
			n uint
		}
		var items []item
		for i, v := range vals {
			n := uint(1)
			if i < len(widths) {
				n = uint(widths[i]%16) + 1
			}
			vv := uint32(v) & ((1 << n) - 1)
			items = append(items, item{vv, n})
			w.WriteBits(vv, n)
		}
		r := NewBitReader(w.Bytes())
		for _, it := range items {
			got, err := r.ReadBits(it.n)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMagnitudeCategory(t *testing.T) {
	cases := map[int32]uint{0: 0, 1: 1, -1: 1, 2: 2, 3: 2, -3: 2, 4: 3, 127: 7, -128: 8, 255: 8}
	for v, want := range cases {
		if got := magnitudeCategory(v); got != want {
			t.Fatalf("magnitudeCategory(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestVLIRoundtrip(t *testing.T) {
	for v := int32(-255); v <= 255; v++ {
		s := magnitudeCategory(v)
		if got := vliDecode(vliBits(v, s), s); got != v {
			t.Fatalf("VLI roundtrip %d -> %d (size %d)", v, got, s)
		}
	}
}

func TestHuffmanTableRoundtrip(t *testing.T) {
	// Every symbol in both tables must encode/decode to itself.
	for _, tbl := range []*huffTable{dcTable, acTable} {
		for _, sym := range tbl.values {
			var w BitWriter
			tbl.encode(&w, sym)
			got, err := tbl.decode(NewBitReader(w.Bytes()))
			if err != nil {
				t.Fatalf("decode symbol %#x: %v", sym, err)
			}
			if got != sym {
				t.Fatalf("symbol %#x decoded as %#x", sym, got)
			}
		}
	}
}

func TestHuffmanCodesArePrefixFree(t *testing.T) {
	for _, tbl := range []*huffTable{dcTable, acTable} {
		type code struct {
			bits uint32
			len  uint
		}
		var codes []code
		for _, c := range tbl.code {
			codes = append(codes, code{c.bits, c.len})
		}
		for i := range codes {
			for j := range codes {
				if i == j {
					continue
				}
				a, b := codes[i], codes[j]
				if a.len <= b.len && b.bits>>(b.len-a.len) == a.bits {
					t.Fatalf("code %b/%d is a prefix of %b/%d", a.bits, a.len, b.bits, b.len)
				}
			}
		}
	}
}

func randomBlocks(r *tensor.RNG, n int, sparsity float64, amp int) [][64]int8 {
	blocks := make([][64]int8, n)
	for b := range blocks {
		for i := 0; i < 64; i++ {
			if r.Float64() < sparsity {
				continue
			}
			v := r.Intn(2*amp+1) - amp
			blocks[b][i] = int8(v)
		}
	}
	return blocks
}

func TestJPEGCodecRoundtrip(t *testing.T) {
	r := tensor.NewRNG(1)
	for _, sp := range []float64{0, 0.3, 0.7, 0.95, 1.0} {
		blocks := randomBlocks(r, 17, sp, 90)
		enc := EncodeJPEGBlocks(blocks)
		dec, err := DecodeJPEGBlocks(enc)
		if err != nil {
			t.Fatalf("sparsity %v: %v", sp, err)
		}
		if len(dec) != len(blocks) {
			t.Fatalf("block count %d != %d", len(dec), len(blocks))
		}
		for i := range blocks {
			if blocks[i] != dec[i] {
				t.Fatalf("sparsity %v block %d mismatch", sp, i)
			}
		}
	}
}

func TestJPEGCodecEmpty(t *testing.T) {
	enc := EncodeJPEGBlocks(nil)
	dec, err := DecodeJPEGBlocks(enc)
	if err != nil || len(dec) != 0 {
		t.Fatalf("empty roundtrip: %v %d", err, len(dec))
	}
	if _, err := DecodeJPEGBlocks([]byte{1}); err != ErrCorrupt {
		t.Fatalf("short stream should be corrupt, got %v", err)
	}
}

func TestJPEGCodecCompressesSparseBlocks(t *testing.T) {
	r := tensor.NewRNG(2)
	sparse := randomBlocks(r, 64, 0.95, 10)
	dense := randomBlocks(r, 64, 0.0, 90)
	if se, de := len(EncodeJPEGBlocks(sparse)), len(EncodeJPEGBlocks(dense)); se >= de {
		t.Fatalf("sparse (%dB) should be smaller than dense (%dB)", se, de)
	}
}

func TestJPEGCodecProperty(t *testing.T) {
	r := tensor.NewRNG(3)
	f := func(nBlocks uint8, sp uint8) bool {
		n := int(nBlocks%8) + 1
		blocks := randomBlocks(r, n, float64(sp%100)/100, 127)
		dec, err := DecodeJPEGBlocks(EncodeJPEGBlocks(blocks))
		if err != nil || len(dec) != n {
			return false
		}
		for i := range blocks {
			if blocks[i] != dec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randVals(r *tensor.RNG, n int, sparsity float64) []int8 {
	out := make([]int8, n)
	for i := range out {
		if r.Float64() >= sparsity {
			v := r.Intn(255) - 127
			if v == 0 {
				v = 1
			}
			out[i] = int8(v)
		}
	}
	return out
}

func TestZVCRoundtrip(t *testing.T) {
	r := tensor.NewRNG(4)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		for _, sp := range []float64{0, 0.5, 1} {
			vals := randVals(r, n, sp)
			enc := EncodeZVC(vals)
			if len(enc) != ZVCSize(vals) {
				t.Fatalf("ZVCSize mismatch: %d vs %d", len(enc), ZVCSize(vals))
			}
			dec, err := DecodeZVC(enc, n)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt8(vals, dec) {
				t.Fatalf("n=%d sp=%v roundtrip mismatch", n, sp)
			}
		}
	}
}

func TestZVCAllZeroCompression(t *testing.T) {
	vals := make([]int8, 800)
	if got := len(EncodeZVC(vals)); got != 100 {
		t.Fatalf("all-zero: %d bytes, want 100 (8x limit)", got)
	}
}

func TestZVCCorrupt(t *testing.T) {
	if _, err := DecodeZVC([]byte{0xFF}, 8); err != ErrCorrupt {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if _, err := DecodeZVC(nil, 8); err != ErrCorrupt {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestBRCRoundtrip(t *testing.T) {
	vals := []float32{-1, 0, 0.5, 2, -3, 0, 0, 7, 1}
	enc, encMask := EncodeBRC(vals)
	if len(enc) != 2 {
		t.Fatalf("encoded size %d, want 2", len(enc))
	}
	mask, err := DecodeBRC(enc, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, true, false, false, false, true, true}
	for i := range want {
		if mask[i] != want[i] || encMask[i] != want[i] {
			t.Fatalf("mask[%d] = %v (decoded), %v (from the encoder)", i, mask[i], encMask[i])
		}
	}
}

func TestBRCShortBuffer(t *testing.T) {
	if _, err := DecodeBRC([]byte{0}, 9); err != ErrCorrupt {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestCSRRoundtrip(t *testing.T) {
	r := tensor.NewRNG(5)
	for _, width := range []int{4, 16, 256} {
		for _, sp := range []float64{0, 0.6, 1} {
			vals := randVals(r, width*5, sp)
			enc := EncodeCSR(vals, width)
			if want := 1 + 2*len(vals)/width + 2*countNonzero(vals); len(enc) != want {
				t.Fatalf("width=%d sp=%v: %d bytes, want %d", width, sp, len(enc), want)
			}
			dec, err := decodeCSR(enc, len(vals))
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt8(vals, dec) {
				t.Fatalf("width=%d sp=%v mismatch", width, sp)
			}
		}
	}
}

func TestCSRDenseExpands(t *testing.T) {
	// Dense data must be ~2x larger than the 8-bit original: the GIST
	// pathology on low-sparsity nets (§VI-B).
	r := tensor.NewRNG(6)
	vals := randVals(r, 1024, 0)
	if got := len(EncodeCSR(vals, 32)); got < 2*len(vals) {
		t.Fatalf("dense CSR size %d, want >= %d", got, 2*len(vals))
	}
}

func TestCSRBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodeCSR(make([]int8, 10), 300)
}

func TestRLERoundtrip(t *testing.T) {
	r := tensor.NewRNG(7)
	cases := [][]int8{
		{},
		{0, 0, 0},
		{1, 2, 3},
		{0, 5, 0, 0, -3, 0},
		append(make([]int8, 300), 7),            // long leading run
		append([]int8{7}, make([]int8, 300)...), // long trailing run
		append([]int8{}, make([]int8, 255)...),  // exactly 255 zeros
		append([]int8{}, make([]int8, 256)...),  // exactly 256 zeros
		append([]int8{}, make([]int8, 510)...),  // two continuation runs
		randVals(r, 777, 0.8),
	}
	for ci, vals := range cases {
		enc := EncodeRLE(vals)
		dec, err := DecodeRLE(enc, len(vals))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if !equalInt8(vals, dec) {
			t.Fatalf("case %d mismatch", ci)
		}
	}
}

func TestRLESensitiveToPattern(t *testing.T) {
	// RLE is highly sensitive to the sparsity pattern (§II-B3): a single
	// long run of zeros compresses far better under RLE than under ZVC,
	// but at moderate random sparsity RLE pays two bytes per non-zero and
	// loses (see TestZVCBeatsRLEOnScatteredZeros).
	n := 1024
	clustered := make([]int8, n)
	for i := 0; i < 8; i++ {
		clustered[i] = 3 // 8 values then one long zero run
	}
	rl, zv := len(EncodeRLE(clustered)), ZVCSize(clustered)
	if rl >= zv {
		t.Fatalf("RLE %dB should beat ZVC %dB on one long zero run", rl, zv)
	}
}

func TestRLEPropertyRoundtrip(t *testing.T) {
	r := tensor.NewRNG(8)
	f := func(n uint16, sp uint8) bool {
		vals := randVals(r, int(n%2000), float64(sp%101)/100)
		dec, err := DecodeRLE(EncodeRLE(vals), len(vals))
		return err == nil && equalInt8(vals, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func equalInt8(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestZVCBeatsRLEOnScatteredZeros(t *testing.T) {
	// The §VI-C claim: randomly distributed zeros favor ZVC over RLE.
	r := tensor.NewRNG(9)
	vals := randVals(r, 4096, 0.5)
	zv, rl := ZVCSize(vals), len(EncodeRLE(vals))
	if zv >= rl {
		t.Fatalf("ZVC %dB should beat RLE %dB on random 50%% sparsity", zv, rl)
	}
}

func BenchmarkEncodeJPEGBlocks(b *testing.B) {
	r := tensor.NewRNG(11)
	blocks := randomBlocks(r, 1024, 0.6, 40)
	b.SetBytes(int64(len(blocks) * 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeJPEGBlocks(blocks)
	}
}

func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	// Arbitrary byte streams must produce errors (or garbage blocks), not
	// panics or allocation bombs.
	r := tensor.NewRNG(99)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(64)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(r.Intn(256))
		}
		_, _ = DecodeJPEGBlocks(buf)
		_, _ = DecodeZVC(buf, n*2)
		_, _ = DecodeRLE(buf, n)
		_, _ = decodeCSR(buf, n*4)
		_, _ = DecodeBRC(buf, n*8)
	}
}

func TestDecodeBlockCountBomb(t *testing.T) {
	// A header claiming 2^30 blocks in a 4-byte stream must be rejected
	// before allocation.
	if _, err := DecodeJPEGBlocks([]byte{0, 0, 0, 64}); err != ErrCorrupt {
		t.Fatalf("block-count bomb accepted: %v", err)
	}
}

func TestJPEGCodecGolden(t *testing.T) {
	// Pin the exact encoding of a fixed block so silent codec changes
	// (table, zigzag, VLI or framing regressions) are caught.
	var blk [64]int8
	blk[0] = 12             // DC
	blk[dct.Zigzag[1]] = -3 // first AC in scan order
	blk[dct.Zigzag[5]] = 7
	blk[dct.Zigzag[20]] = 1
	enc := EncodeJPEGBlocks([][64]int8{blk})
	want := []byte{0x01, 0x00, 0x00, 0x00, 0xb8, 0x9f, 0xeb, 0xff, 0xfa, 0xf5}
	if len(enc) != len(want) {
		t.Fatalf("encoded %d bytes (% x), want %d (% x)", len(enc), enc, len(want), want)
	}
	for i := range want {
		if enc[i] != want[i] {
			t.Fatalf("byte %d: %#x want %#x (full: % x)", i, enc[i], want[i], enc)
		}
	}
	dec, err := DecodeJPEGBlocks(enc)
	if err != nil || dec[0] != blk {
		t.Fatalf("golden decode failed: %v", err)
	}
}
