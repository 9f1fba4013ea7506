// Package coding implements the lossless back-end coders used by the
// JPEG-ACT paper and its baselines:
//
//   - the JPEG run-length + Huffman entropy codec (RLE, §II-B5/III-E),
//   - Zero Value Compression (ZVC, §II-B4),
//   - Binary ReLU Compression (BRC, §II-B1),
//   - Compressed Sparse Row storage (CSR, as used by GIST),
//   - simple zero run-length encoding (§II-B3).
//
// All coders consume/produce byte slices; compression ratios are computed
// against the original 32-bit float activation storage by the compress
// package.
package coding

import "errors"

// ErrCorrupt is returned when a compressed stream cannot be decoded.
var ErrCorrupt = errors.New("coding: corrupt stream")

// BitWriter accumulates an MSB-first bit stream.
type BitWriter struct {
	buf  []byte
	cur  uint32
	nCur uint // bits currently held in cur (< 8)
}

// WriteBits appends the low n bits of v, MSB first. n must be ≤ 24.
func (w *BitWriter) WriteBits(v uint32, n uint) {
	if n == 0 {
		return
	}
	v &= (1 << n) - 1
	w.cur = w.cur<<n | v
	w.nCur += n
	for w.nCur >= 8 {
		w.nCur -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nCur))
	}
	w.cur &= (1 << w.nCur) - 1
}

// Bytes flushes any partial byte (padded with 1s, as JPEG does) and
// returns the encoded stream.
func (w *BitWriter) Bytes() []byte {
	if w.nCur > 0 {
		pad := 8 - w.nCur
		w.cur = w.cur<<pad | ((1 << pad) - 1)
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// BitReader reads an MSB-first bit stream produced by BitWriter.
type BitReader struct {
	buf  []byte
	pos  int // next byte index
	cur  uint32
	nCur uint
}

// NewBitReader wraps buf for reading.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBits reads n bits (n ≤ 24), returning them in the low bits.
func (r *BitReader) ReadBits(n uint) (uint32, error) {
	for r.nCur < n {
		if r.pos >= len(r.buf) {
			return 0, ErrCorrupt
		}
		r.cur = r.cur<<8 | uint32(r.buf[r.pos])
		r.pos++
		r.nCur += 8
	}
	r.nCur -= n
	v := (r.cur >> r.nCur) & ((1 << n) - 1)
	r.cur &= (1 << r.nCur) - 1
	return v, nil
}

// ReadBit reads a single bit.
func (r *BitReader) ReadBit() (uint32, error) { return r.ReadBits(1) }
