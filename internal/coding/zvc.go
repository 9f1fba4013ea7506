package coding

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"jpegact/internal/parallel"
)

// Zero Value Compression (ZVC, §II-B4, Fig. 4): for every group of eight
// 8-bit values a one-byte non-zero mask is emitted followed by the packed
// non-zero bytes. Compression is insensitive to the *distribution* of
// zeros, which is why JPEG-ACT prefers it over run-length coding for
// frequency-domain activations whose zeros are randomly spread (§VI-C).
// The mask bounds the maximum compression at 8× for 8-bit values.
//
// A stream is canonical: a set mask bit is followed by a non-zero byte,
// the unused mask bits of a short tail group are clear, and nothing
// follows the last group. The decoders reject anything else, so a stream
// that decodes re-encodes to the same bytes.
//
// Both layouts the codec codes — flat runs of SFPR codes and 8×8
// quantized blocks, whose concatenation codes to the same stream — are
// cut into shards of ZVCShard values, and a shard codes (decodes) one
// run or block at a time through a stack buffer (EncodeZVCRun,
// DecodeZVCRun). Shards code in parallel, each inside its own
// worst-case window (the paper's multi-CDU round-robin in software), and
// the coded windows are concatenated in shard order, so the bytes are
// identical at any worker count.

// zvcShardBlocks is the number of 8×8 blocks per parallel shard (one
// group is a dozen word operations, so 512 groups keep the goroutine
// handoff well under 1%), ZVCShard the same in values.
const (
	zvcShardBlocks = 64
	ZVCShard       = zvcShardBlocks * 64
)

// The kernels treat a group as one little-endian 64-bit word, value j in
// byte j, and classify it by the mask they have just computed:
//
//   - all zero: the mask byte alone;
//   - all non-zero: the word is stored (loaded) whole;
//   - mixed: the bytes are compacted (spread) without a branch per byte —
//     every lane is stored to its prefix-count position, in lane order, so
//     a zero lane is overwritten by its successor.
//
// On dense data (DCT blocks, ≈ 50/64 non-zero under OptL) the first two
// classes carry most groups and are predictable; on ReLU codes (≈ 45%
// non-zero, no pattern) nearly every group is mixed and the branch-free
// path is what avoids a mispredict every other byte.
//
// Window rule: the mixed encode path stores all eight lanes, so it may
// touch up to eight bytes past the mask even when the group codes to
// fewer; the mixed decode path likewise reads eight. So a group takes a
// word path only when the whole nine bytes lie inside the window and the
// exact byte-at-a-time path otherwise. An encode window is its shard's
// worst case, so there that is only the short tail; a decode window is
// the stream, so there it is also the groups of its last eight bytes.

const (
	lanesLo7 = 0x7F7F7F7F7F7F7F7F
	lanesHi  = 0x8080808080808080
	lanesOne = 0x0101010101010101
)

// load8 assembles eight values into a word (one 8-byte load once the
// compiler has combined it).
func load8(v []int8) uint64 {
	_ = v[7]
	return uint64(uint8(v[0])) | uint64(uint8(v[1]))<<8 | uint64(uint8(v[2]))<<16 | uint64(uint8(v[3]))<<24 |
		uint64(uint8(v[4]))<<32 | uint64(uint8(v[5]))<<40 | uint64(uint8(v[6]))<<48 | uint64(uint8(v[7]))<<56
}

// store8 is the inverse of load8.
func store8(v []int8, w uint64) {
	_ = v[7]
	v[0] = int8(w)
	v[1] = int8(w >> 8)
	v[2] = int8(w >> 16)
	v[3] = int8(w >> 24)
	v[4] = int8(w >> 32)
	v[5] = int8(w >> 40)
	v[6] = int8(w >> 48)
	v[7] = int8(w >> 56)
}

// nonzeroLanes returns a word whose lane j has its top bit set iff lane
// j of w is non-zero (and no other bit set).
func nonzeroLanes(w uint64) uint64 {
	return ((w&lanesLo7 + lanesLo7) | w) & lanesHi
}

// packMask gathers the eight lane flags of nonzeroLanes into a mask
// byte, lane j in bit j.
func packMask(t uint64) byte {
	return byte((t >> 7) * 0x0102040810204080 >> 56)
}

// spreadMask is the inverse of packMask.
func spreadMask(m byte) uint64 {
	return nonzeroLanes(uint64(m) * lanesOne & 0x8040201008040201)
}

// EncodeZVCRun codes vals — whole groups, plus a short tail group if
// len(vals) is not a multiple of 8, which only a shard's last run may
// have — into dst starting at p and returns the new position. len(dst)
// is the end of the caller's window: no byte at or past it is written.
// It is DecodeZVCRun's inverse: an encoder that casts or quantizes one
// stack-sized run at a time codes each run through it.
func EncodeZVCRun(dst []byte, p int, vals []int8) int {
	i := 0
	for ; i+8 <= len(vals); i += 8 {
		w := load8(vals[i : i+8 : i+8])
		t := nonzeroLanes(w)
		if t == 0 {
			dst[p] = 0
			p++
			continue
		}
		if t == lanesHi {
			dst[p] = 0xFF
			binary.LittleEndian.PutUint64(dst[p+1:], w)
			p += 9
			continue
		}
		if p+9 > len(dst) {
			p = encodeGroupExact(dst, p, vals[i:i+8])
			continue
		}
		dst[p] = packMask(t)
		d := dst[p+1 : p+9 : p+9]
		// pre's lane j counts the non-zero lanes 0..j; shifted up one
		// lane it is each lane's position in the packed output.
		pre := (t >> 7) * lanesOne
		at := pre << 8
		d[0] = byte(w)
		d[at>>8&7] = byte(w >> 8)
		d[at>>16&7] = byte(w >> 16)
		d[at>>24&7] = byte(w >> 24)
		d[at>>32&7] = byte(w >> 32)
		d[at>>40&7] = byte(w >> 40)
		d[at>>48&7] = byte(w >> 48)
		d[at>>56&7] = byte(w >> 56)
		p += 1 + int(pre>>56)
	}
	if i < len(vals) {
		p = encodeGroupExact(dst, p, vals[i:])
	}
	return p
}

// encodeGroupExact codes one group of up to eight values, writing
// exactly the bytes of its encoding.
func encodeGroupExact(dst []byte, p int, g []int8) int {
	mp := p
	p++
	var mask byte
	for j, v := range g {
		if v != 0 {
			mask |= 1 << uint(j)
			dst[p] = byte(v)
			p++
		}
	}
	dst[mp] = mask
	return p
}

// DecodeZVCRun decodes len(dst) values — whole groups plus at most one
// short tail, which only the stream's last run may have — from data
// starting at p, overwriting every element of dst. It returns the new
// position, or ok = false if the stream ends early or is not canonical.
func DecodeZVCRun(dst []int8, data []byte, p int) (int, bool) {
	var bad uint64
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		if p >= len(data) {
			return p, false
		}
		g := dst[i : i+8 : i+8]
		m := data[p]
		if m == 0 {
			store8(g, 0)
			p++
			continue
		}
		if p+9 > len(data) {
			var ok bool
			if p, ok = decodeGroupExact(g, data, p); !ok {
				return p, false
			}
			continue
		}
		src := data[p+1 : p+9 : p+9]
		if m == 0xFF {
			w := binary.LittleEndian.Uint64(src)
			bad |= nonzeroLanes(w) ^ lanesHi
			store8(g, w)
			p += 9
			continue
		}
		e := spreadMask(m)
		pre := (e >> 7) * lanesOne
		at := pre << 8
		w := uint64(src[0]) | uint64(src[at>>8&7])<<8 | uint64(src[at>>16&7])<<16 | uint64(src[at>>24&7])<<24 |
			uint64(src[at>>32&7])<<32 | uint64(src[at>>40&7])<<40 | uint64(src[at>>48&7])<<48 | uint64(src[at>>56&7])<<56
		w &= (e >> 7) * 0xFF
		bad |= nonzeroLanes(w) ^ e
		store8(g, w)
		p += 1 + int(pre>>56)
	}
	if bad != 0 {
		return p, false
	}
	if i < len(dst) {
		return decodeGroupExact(dst[i:], data, p)
	}
	return p, true
}

// decodeGroupExact decodes one group of up to eight values, reading
// exactly the bytes of its encoding.
func decodeGroupExact(g []int8, data []byte, p int) (int, bool) {
	if p >= len(data) {
		return p, false
	}
	m := data[p]
	p++
	if int(m)>>uint(len(g)) != 0 {
		return p, false
	}
	for j := range g {
		g[j] = 0
		if m&(1<<uint(j)) != 0 {
			if p >= len(data) || data[p] == 0 {
				return p, false
			}
			g[j] = int8(data[p])
			p++
		}
	}
	return p, true
}

// shardWindow is a shard's worst-case coded size: nine bytes per group.
const shardWindow = 9 * ZVCShard / 8

// windows holds the encoders' scratch: shardWindow bytes per shard.
var windows = sync.Pool{New: func() any { return new([]byte) }}

// EncodeZVCShards is the encode driver every layout shares, the twin of
// DecodeZVCShards: every shard — ZVCShard values, the last one possibly
// fewer — codes once, in parallel, into its own shardWindow of a pooled
// scratch, and encode(s, win) reports how many bytes of win shard s
// wrote (with EncodeZVCRun, in runs of whole groups). The lengths are
// prefix-summed and the windows copied into one exactly-sized stream.
// The windows are three-index slices, so a kernel that broke the window
// rule would panic instead of clobbering its neighbour.
func EncodeZVCShards(shards int, encode func(s int, win []byte) int) []byte {
	bufP := windows.Get().(*[]byte)
	if cap(*bufP) < shards*shardWindow {
		*bufP = make([]byte, shards*shardWindow)
	}
	buf := *bufP
	lens := make([]int, shards)
	parallel.For(shards, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			lens[s] = encode(s, buf[s*shardWindow:(s+1)*shardWindow:(s+1)*shardWindow])
		}
	})
	n := 0
	for _, l := range lens {
		n += l
	}
	out := make([]byte, 0, n)
	for s, l := range lens {
		out = append(out, buf[s*shardWindow:s*shardWindow+l]...)
	}
	windows.Put(bufP)
	return out
}

// EncodeZVCBlocks encodes the concatenation of the blocks: the same
// stream as the flattened values would code to, without the flat copy.
func EncodeZVCBlocks(blocks [][64]int8) []byte {
	nb := len(blocks)
	return EncodeZVCShards((nb+zvcShardBlocks-1)/zvcShardBlocks, func(s int, win []byte) int {
		p := 0
		for i := s * zvcShardBlocks; i < min((s+1)*zvcShardBlocks, nb); i++ {
			p = EncodeZVCRun(win, p, blocks[i][:])
		}
		return p
	})
}

// DecodeZVCShards is the decode driver every layout shares, for a stream
// holding n values. It walks the masks to find the offset of every
// shard's first mask — serial, since each mask's position depends on the
// popcounts before it, but one byte per group — rejects the stream unless
// the groups end exactly at its end, and then lets shards decode in
// parallel: decode(s, p) decodes shard s, values [s·ZVCShard,
// min((s+1)·ZVCShard, n)), from offset p with DecodeZVCRun, in runs of
// whole groups, and reports whether the shard was canonical. A caller
// decoding into a stack buffer per run and writing its own result is
// how the codec restores straight into a tensor.
func DecodeZVCShards(data []byte, n int, decode func(s, p int) bool) error {
	offs := make([]int, (n+ZVCShard-1)/ZVCShard)
	p := 0
	for s := range offs {
		offs[s] = p
		groups := (min((s+1)*ZVCShard, n) - s*ZVCShard + 7) / 8
		for g := 0; g < groups; g++ {
			if p >= len(data) {
				return ErrCorrupt
			}
			p += 1 + bits.OnesCount8(data[p])
		}
	}
	if p != len(data) {
		return ErrCorrupt
	}
	var corrupt atomic.Bool
	parallel.For(len(offs), 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			if !decode(s, offs[s]) {
				corrupt.Store(true)
			}
		}
	})
	if corrupt.Load() {
		return ErrCorrupt
	}
	return nil
}

// DecodeZVCBlocksInto decodes a stream produced by EncodeZVCBlocks into dst, whose length fixes the
// expected block count. Every block is overwritten.
func DecodeZVCBlocksInto(dst [][64]int8, data []byte) error {
	nb := len(dst)
	return DecodeZVCShards(data, nb*64, func(s, p int) bool {
		ok := true
		for i := s * zvcShardBlocks; i < min((s+1)*zvcShardBlocks, nb) && ok; i++ {
			p, ok = DecodeZVCRun(dst[i][:], data, p)
		}
		return ok
	})
}

// DecodeZVCBlocks allocates and decodes nb blocks from data.
func DecodeZVCBlocks(data []byte, nb int) ([][64]int8, error) {
	if len(data) < nb*8 {
		return nil, ErrCorrupt // before allocating nb blocks for it
	}
	out := make([][64]int8, nb)
	if err := DecodeZVCBlocksInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}
