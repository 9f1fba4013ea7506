package coding

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// refEncodeZVC and refDecodeZVC are the serial byte-at-a-time coders the
// word-at-a-time kernels replaced, kept as the oracle.

func refEncodeZVC(vals []int8) []byte {
	out := make([]byte, 0, len(vals)/4+8)
	for i := 0; i < len(vals); i += 8 {
		end := min(i+8, len(vals))
		var mask byte
		for j := i; j < end; j++ {
			if vals[j] != 0 {
				mask |= 1 << uint(j-i)
			}
		}
		out = append(out, mask)
		for j := i; j < end; j++ {
			if vals[j] != 0 {
				out = append(out, byte(vals[j]))
			}
		}
	}
	return out
}

// DecodeZVCInto decodes a stream produced by EncodeZVC into dst, whose
// length is the original value count, one whole shard per run: the flat
// layout through the product's decode driver.
func DecodeZVCInto(dst []int8, data []byte) error {
	n := len(dst)
	return DecodeZVCShards(data, n, func(s, p int) bool {
		_, ok := DecodeZVCRun(dst[s*ZVCShard:min((s+1)*ZVCShard, n)], data, p)
		return ok
	})
}

// DecodeZVC is DecodeZVCInto into a fresh slice of the n original values,
// the form these tests find convenient; the product decodes straight into
// its destination tensor.
func DecodeZVC(data []byte, n int) ([]int8, error) {
	if len(data) < (n+7)/8 {
		return nil, ErrCorrupt // before allocating n values for it
	}
	out := make([]int8, n)
	if err := DecodeZVCInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}

func refDecodeZVC(data []byte, n int) ([]int8, error) {
	out := make([]int8, n)
	p := 0
	for i := 0; i < n; i += 8 {
		if p >= len(data) {
			return nil, ErrCorrupt
		}
		mask := data[p]
		p++
		end := min(i+8, n)
		for j := i; j < end; j++ {
			if mask&(1<<uint(j-i)) != 0 {
				if p >= len(data) {
					return nil, ErrCorrupt
				}
				out[j] = int8(data[p])
				p++
			}
		}
	}
	return out, nil
}

func TestMaskPackSpread(t *testing.T) {
	for m := 0; m < 256; m++ {
		var w uint64
		for j := 0; j < 8; j++ {
			if m>>j&1 != 0 {
				w |= uint64(0x80-j*0x11) << (8 * j) // 0x80, 0x6f, … : high bit set and clear
			}
		}
		lanes := nonzeroLanes(w)
		if got := packMask(lanes); got != byte(m) {
			t.Fatalf("packMask(nonzeroLanes(%#x)) = %#x, want %#x", w, got, m)
		}
		if bits.OnesCount64(lanes) != bits.OnesCount8(byte(m)) || lanes&^lanesHi != 0 {
			t.Fatalf("nonzeroLanes(%#x) = %#x", w, lanes)
		}
		if got := spreadMask(byte(m)); got != lanes {
			t.Fatalf("spreadMask(%#x) = %#x, want %#x", m, got, lanes)
		}
	}
}

// densityVals returns n values of which a share nz is non-zero, spread
// without pattern (ReLU codes), every non-zero byte value occurring.
func densityVals(seed uint64, n int, nz float64) []int8 {
	r := tensor.NewRNG(seed)
	vals := make([]int8, n)
	for i := range vals {
		if r.Float64() < nz {
			v := int8(r.Intn(255) - 127)
			if v == 0 {
				v = -128
			}
			vals[i] = v
		}
	}
	return vals
}

// dctLikeBlocks returns blocks shaped like quantized DCT coefficients
// under OptL: low frequencies always non-zero, the chance falling with
// r+c, ≈ 78% non-zero overall — so the stream mixes all-non-zero,
// mixed and all-zero mask groups.
func dctLikeBlocks(seed uint64, nb int) [][64]int8 {
	r := tensor.NewRNG(seed)
	blocks := make([][64]int8, nb)
	for b := range blocks {
		for i := range blocks[b] {
			if p := 1.55 - 0.1*float64(i/8+i%8); r.Float64() < p {
				blocks[b][i] = int8(1 + r.Intn(127))
				if r.Intn(2) == 0 {
					blocks[b][i] = -blocks[b][i]
				}
			}
		}
	}
	return blocks
}

func flatten(blocks [][64]int8) []int8 {
	flat := make([]int8, 0, len(blocks)*64)
	for i := range blocks {
		flat = append(flat, blocks[i][:]...)
	}
	return flat
}

func TestDCTLikeBlocksDensity(t *testing.T) {
	flat := flatten(dctLikeBlocks(1, 512))
	if d := float64(countNonzero(flat)) / float64(len(flat)); d < 0.74 || d > 0.82 {
		t.Fatalf("dctLikeBlocks density %.3f, want ≈ 0.78", d)
	}
}

func withWorkers(t *testing.T, f func(w int)) {
	t.Helper()
	for _, w := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
		old := parallel.SetWorkers(w)
		f(w)
		parallel.SetWorkers(old)
	}
}

// TestZVCMatchesReference pins the flat coder to the serial reference at
// every density, at lengths that are not multiples of 8 or of the shard
// size, and at every worker count.
func TestZVCMatchesReference(t *testing.T) {
	lengths := []int{0, 1, 7, 8, 9, 13, 64, ZVCShard - 1, ZVCShard, ZVCShard + 1, ZVCShard + 8, 3*ZVCShard + 5, 5*ZVCShard - 3}
	for di, nz := range []float64{0, 0.02, 0.45, 0.78, 0.98, 1} {
		for li, n := range lengths {
			vals := densityVals(uint64(100+10*di+li), n, nz)
			want := refEncodeZVC(vals)
			withWorkers(t, func(w int) {
				got := EncodeZVC(vals)
				if !bytes.Equal(got, want) {
					t.Fatalf("nz=%v n=%d workers=%d: stream differs from the reference", nz, n, w)
				}
				if sz := ZVCSize(vals); sz != len(want) {
					t.Fatalf("nz=%v n=%d workers=%d: ZVCSize %d, stream %d", nz, n, w, sz, len(want))
				}
				dec, err := DecodeZVC(got, n)
				if err != nil || !slices.Equal(dec, vals) {
					t.Fatalf("nz=%v n=%d workers=%d: decode: %v", nz, n, w, err)
				}
				dirty := make([]int8, n)
				for i := range dirty {
					dirty[i] = -1
				}
				if err := DecodeZVCInto(dirty, got); err != nil || !slices.Equal(dirty, vals) {
					t.Fatalf("nz=%v n=%d workers=%d: decode into a dirty buffer: %v", nz, n, w, err)
				}
			})
		}
	}
}

func TestZVCBlocksMatchReference(t *testing.T) {
	for _, nb := range []int{0, 1, 63, 64, 65, 200} {
		blocks := dctLikeBlocks(uint64(nb), nb)
		want := refEncodeZVC(flatten(blocks))
		withWorkers(t, func(w int) {
			got := EncodeZVCBlocks(blocks)
			if !bytes.Equal(got, want) {
				t.Fatalf("nb=%d workers=%d: stream differs from the reference", nb, w)
			}
			dec, err := DecodeZVCBlocks(got, nb)
			if err != nil || !slices.Equal(dec, blocks) {
				t.Fatalf("nb=%d workers=%d: decode: %v", nb, w, err)
			}
		})
	}
}

// TestZVCShardBoundary is the window rule: the branch-free paths store
// (load) a whole word, so the last group of a shard must not take them
// unless its full nine bytes lie inside the shard's window — otherwise
// it clobbers the first mask byte of the next shard, which another
// worker may already have written. Run under -race: the neighbouring
// shards are coded concurrently.
func TestZVCShardBoundary(t *testing.T) {
	const shards = 6
	for _, lastZero := range []bool{true, false} {
		vals := densityVals(7, shards*ZVCShard, 0.45)
		for s := 1; s <= shards; s++ {
			g := vals[s*ZVCShard-8 : s*ZVCShard]
			for j := range g {
				g[j] = int8(j + 1)
			}
			g[3] = 0 // mixed, so neither whole-word class applies
			if lastZero {
				g[7] = 0
			}
			if s < shards {
				vals[s*ZVCShard] = 0 // next shard's first mask has bit 0 clear
			}
		}
		want := refEncodeZVC(vals)
		blocks := make([][64]int8, len(vals)/64)
		for i := range blocks {
			copy(blocks[i][:], vals[i*64:])
		}
		withWorkers(t, func(w int) {
			for rep := 0; rep < 20; rep++ {
				if got := EncodeZVC(vals); !bytes.Equal(got, want) {
					t.Fatalf("lastZero=%v workers=%d: flat stream differs", lastZero, w)
				}
				if got := EncodeZVCBlocks(blocks); !bytes.Equal(got, want) {
					t.Fatalf("lastZero=%v workers=%d: block stream differs", lastZero, w)
				}
				dec := make([]int8, len(vals))
				if err := DecodeZVCInto(dec, want); err != nil || !slices.Equal(dec, vals) {
					t.Fatalf("lastZero=%v workers=%d: flat decode: %v", lastZero, w, err)
				}
				decB := make([][64]int8, len(blocks))
				if err := DecodeZVCBlocksInto(decB, want); err != nil || !slices.Equal(decB, blocks) {
					t.Fatalf("lastZero=%v workers=%d: block decode: %v", lastZero, w, err)
				}
			}
		})
	}
}

// TestEncodeZVCIntoStaysInWindow codes into a window with sentinel
// bytes on both sides.
func TestEncodeZVCIntoStaysInWindow(t *testing.T) {
	for _, nz := range []float64{0.1, 0.45, 0.9} {
		for _, n := range []int{8, 16, 61, 64, 512} {
			vals := densityVals(uint64(n), n, nz)
			vals[n-1] = 0 // the final lane is where a whole-word store overhangs
			want := refEncodeZVC(vals)
			buf := bytes.Repeat([]byte{0xA5}, len(want)+32)
			win := buf[16 : 16+len(want) : 16+len(want)]
			if p := encodeZVCInto(win, 0, vals); p != len(want) {
				t.Fatalf("nz=%v n=%d: wrote %d bytes, want %d", nz, n, p, len(want))
			}
			if !bytes.Equal(win, want) {
				t.Fatalf("nz=%v n=%d: window differs from the reference", nz, n)
			}
			for i, b := range buf {
				if (i < 16 || i >= 16+len(want)) && b != 0xA5 {
					t.Fatalf("nz=%v n=%d: byte %d outside the window was written", nz, n, i-16)
				}
			}
		}
	}
}

// TestZVCRejectsNonCanonical: both decoders consume the stream exactly
// and accept only what the encoder can produce.
func TestZVCRejectsNonCanonical(t *testing.T) {
	blocks := dctLikeBlocks(3, 70)
	vals := flatten(blocks)
	enc := EncodeZVCBlocks(blocks)
	decode := func(data []byte) (error, error) {
		_, e1 := DecodeZVC(data, len(vals))
		return e1, DecodeZVCBlocksInto(make([][64]int8, len(blocks)), data)
	}
	if e1, e2 := decode(enc); e1 != nil || e2 != nil {
		t.Fatalf("valid stream: %v, %v", e1, e2)
	}
	if e1, e2 := decode(append(slices.Clone(enc), 0, 0, 0)); e1 != ErrCorrupt || e2 != ErrCorrupt {
		t.Fatalf("three trailing bytes: %v, %v, want ErrCorrupt", e1, e2)
	}
	if e1, e2 := decode(append(slices.Clone(enc), 7)); e1 != ErrCorrupt || e2 != ErrCorrupt {
		t.Fatalf("one trailing byte: %v, %v, want ErrCorrupt", e1, e2)
	}
	if e1, e2 := decode(enc[:len(enc)-1]); e1 != ErrCorrupt || e2 != ErrCorrupt {
		t.Fatalf("truncated: %v, %v, want ErrCorrupt", e1, e2)
	}
	// A set mask bit over a zero byte, once in each decode path: a full
	// group, a mixed group, and the exact path at the end of the stream.
	full := []byte{0xFF, 1, 2, 3, 0, 5, 6, 7, 8, 0}
	mixed := []byte{0x05, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	last := []byte{0, 0x05, 1, 0}
	for name, data := range map[string][]byte{"full": full, "mixed": mixed, "last": last} {
		if _, err := DecodeZVC(data, 16); err != ErrCorrupt {
			t.Fatalf("%s group with a flagged zero byte: %v, want ErrCorrupt", name, err)
		}
	}
	// Mask bits beyond a short tail group.
	if _, err := DecodeZVC([]byte{0x21, 9, 9}, 5); err != ErrCorrupt {
		t.Fatalf("tail mask bit past the value count: %v, want ErrCorrupt", err)
	}
	if got, err := DecodeZVC([]byte{0x11, 9, 9}, 5); err != nil || !slices.Equal(got, []int8{9, 0, 0, 0, 9}) {
		t.Fatalf("valid tail group: %v, %v", got, err)
	}
}

// TestZVCDecodeMatchesReferenceOnCanonical: on streams the reference
// decoder accepts and that re-encode to themselves, the word decoder
// returns the same values.
func TestZVCDecodeMatchesReferenceOnCanonical(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		n := 1 + int(seed*37%300)
		vals := densityVals(seed, n, float64(seed%10)/9)
		enc := refEncodeZVC(vals)
		want, err := refDecodeZVC(enc, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeZVC(enc, n)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("seed %d n=%d: %v", seed, n, err)
		}
	}
}

// The benchmarks cover both densities the codec meets — ReLU codes
// (≈ 45% non-zero, no pattern: nearly every group mixed) through the flat
// coder and DCT blocks (≈ 78%: mostly whole-word groups) through the
// block coder — at the benchmark tensor's size, so a kernel tuned for
// one cannot quietly regress the other.

const benchVals = 8 * 16 * 32 * 32

func benchSources() (flat []int8, blocks [][64]int8) {
	return densityVals(10, benchVals, 0.45), dctLikeBlocks(11, benchVals/64)
}

func BenchmarkEncodeZVC(b *testing.B) {
	flat, blocks := benchSources()
	b.Run("flat45", func(b *testing.B) {
		b.SetBytes(int64(len(flat)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodeZVC(flat)
		}
	})
	b.Run("blocks78", func(b *testing.B) {
		b.SetBytes(int64(len(blocks) * 64))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodeZVCBlocks(blocks)
		}
	})
}

func BenchmarkDecodeZVC(b *testing.B) {
	flat, blocks := benchSources()
	b.Run("flat45", func(b *testing.B) {
		enc := EncodeZVC(flat)
		dst := make([]int8, len(flat))
		b.SetBytes(int64(len(flat)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeZVCInto(dst, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blocks78", func(b *testing.B) {
		enc := EncodeZVCBlocks(blocks)
		dst := make([][64]int8, len(blocks))
		b.SetBytes(int64(len(blocks) * 64))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeZVCBlocksInto(dst, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func ExampleEncodeZVC() {
	fmt.Printf("% x\n", EncodeZVC([]int8{1, 0, 2, 0, 0, 0, 0, 3, 4}))
	// Output: 85 01 02 03 01 04
}

// ZVCSize returns the encoded size in bytes without materializing the
// stream: the oracle the encoders' exact sizing is checked against. The non-zero scan
// shards over the worker pool (integer partial sums, so the total is
// exact regardless of the split).
func ZVCSize(vals []int8) int {
	n := len(vals)
	var total atomic.Int64
	parallel.For((n+ZVCShard-1)/ZVCShard, 4, func(lo, hi int) {
		total.Add(int64(zvcSize(vals[lo*ZVCShard : min(hi*ZVCShard, n)])))
	})
	return int(total.Load())
}
