// Package frame defines the self-describing binary container that every
// offloaded activation crosses the GPU↔host channel in. The paper's
// system (Fig. 7) DMAs compressed activations into CPU DRAM — a physical
// channel that sees bit flips, truncated transfers and lost buffers — so
// instead of naked byte slices the offload store ships framed payloads
// that can be validated end to end before they are trusted.
//
// Layout (little endian, 36-byte header):
//
//	off  0  magic   "JAFR"
//	off  4  version u8  (currently 1)
//	off  5  codec   u8  (CodecBRC | CodecJPEG | CodecZVC | CodecGradRaw)
//	off  6  kind    u8  (compress.Kind of the activation)
//	off  7  flags   u8  (reserved, must be 0)
//	off  8  shape   4×u32 (N, C, H, W)
//	off 24  nScales u32
//	off 28  payload u32 (byte length)
//	off 32  crc     u32 (CRC32C over header[4:32] ++ scales ++ payload)
//	off 36  scales  nScales × f32
//	...     payload bytes
//
// DecodeFrame is panic-free on arbitrary input and returns one of the
// typed errors below; a frame that decodes re-encodes byte-identically.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"jpegact/internal/tensor"
)

// Typed decode errors. Wrapped errors always satisfy errors.Is against
// these sentinels.
var (
	// ErrBadMagic: the buffer does not start with the frame magic.
	ErrBadMagic = errors.New("frame: bad magic")
	// ErrVersion: the format version is not understood.
	ErrVersion = errors.New("frame: unsupported version")
	// ErrTruncated: the buffer ends before the declared content does.
	ErrTruncated = errors.New("frame: truncated")
	// ErrChecksum: the CRC32C over header+scales+payload does not match.
	ErrChecksum = errors.New("frame: checksum mismatch")
	// ErrHeader: a header field is out of range (bad codec, zero or
	// enormous dims, trailing bytes after the declared content).
	ErrHeader = errors.New("frame: invalid header")
)

// Codec identifies how the payload bytes are to be interpreted.
type Codec uint8

const (
	// CodecBRC: payload is a BRC sign-bit mask (1 bit/element).
	CodecBRC Codec = 1
	// CodecJPEG: payload is ZVC-coded quantized 8×8 DCT blocks (the
	// SH+ZVC dense path).
	CodecJPEG Codec = 2
	// CodecZVC: payload is ZVC-coded SFPR int8 values (sparse path).
	CodecZVC Codec = 3
	// CodecGradRaw: payload is raw little-endian float32 gradient
	// values — lossless, so the data-parallel exchange's all-reduce is
	// bit-exact by construction.
	CodecGradRaw Codec = 4
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecBRC:
		return "brc"
	case CodecJPEG:
		return "jpeg"
	case CodecZVC:
		return "zvc"
	case CodecGradRaw:
		return "grad-raw"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// Version is the current frame format version.
const Version = 1

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 36

var magic = [4]byte{'J', 'A', 'F', 'R'}

// Castagnoli (CRC32C) table — the polynomial with hardware support on
// both x86 and ARM, the natural choice for a DMA-side integrity check.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Sanity caps: a corrupt header must never become an allocation bomb.
const (
	maxDim     = 1 << 20
	maxElems   = 1 << 28 // 1 GiB of float32
	maxScales  = 1 << 24
	maxPayload = 1 << 30
)

// Frame is one decoded (or to-be-encoded) container.
type Frame struct {
	Codec   Codec
	Kind    uint8 // compress.Kind, carried opaquely
	Shape   tensor.Shape
	Scales  []float32
	Payload []byte
}

// EncodedSize returns the exact byte length EncodeFrame will produce.
func (f *Frame) EncodedSize() int {
	return HeaderSize + 4*len(f.Scales) + len(f.Payload)
}

// EncodeFrame serializes f, computing the CRC32C trailer-less checksum
// over header-after-magic, scales and payload.
func EncodeFrame(f *Frame) []byte {
	buf := make([]byte, f.EncodedSize())
	copy(buf[0:4], magic[:])
	buf[4] = Version
	buf[5] = byte(f.Codec)
	buf[6] = f.Kind
	buf[7] = 0
	le := binary.LittleEndian
	le.PutUint32(buf[8:], uint32(f.Shape.N))
	le.PutUint32(buf[12:], uint32(f.Shape.C))
	le.PutUint32(buf[16:], uint32(f.Shape.H))
	le.PutUint32(buf[20:], uint32(f.Shape.W))
	le.PutUint32(buf[24:], uint32(len(f.Scales)))
	le.PutUint32(buf[28:], uint32(len(f.Payload)))
	off := HeaderSize
	for _, s := range f.Scales {
		le.PutUint32(buf[off:], math.Float32bits(s))
		off += 4
	}
	copy(buf[off:], f.Payload)
	le.PutUint32(buf[32:], checksum(buf))
	return buf
}

// checksum computes the frame CRC over buf[4:32] and buf[36:].
func checksum(buf []byte) uint32 {
	c := crc32.Update(0, crcTable, buf[4:32])
	return crc32.Update(c, crcTable, buf[HeaderSize:])
}

// DecodeFrame parses and validates a frame. It never panics on arbitrary
// input; the returned Frame's Scales and Payload alias b.
func DecodeFrame(b []byte) (*Frame, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if b[0] != magic[0] || b[1] != magic[1] || b[2] != magic[2] || b[3] != magic[3] {
		return nil, ErrBadMagic
	}
	if len(b) < HeaderSize {
		return nil, fmt.Errorf("%w: %d bytes < %d-byte header", ErrTruncated, len(b), HeaderSize)
	}
	if b[4] != Version {
		return nil, fmt.Errorf("%w: version %d", ErrVersion, b[4])
	}
	codec := Codec(b[5])
	if codec < CodecBRC || codec > CodecGradRaw {
		return nil, fmt.Errorf("%w: %s", ErrHeader, codec)
	}
	if b[7] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved flags", ErrHeader)
	}
	le := binary.LittleEndian
	n, c := le.Uint32(b[8:]), le.Uint32(b[12:])
	h, w := le.Uint32(b[16:]), le.Uint32(b[20:])
	nScales := le.Uint32(b[24:])
	payloadLen := le.Uint32(b[28:])
	if n == 0 || c == 0 || h == 0 || w == 0 ||
		n > maxDim || c > maxDim || h > maxDim || w > maxDim ||
		uint64(n)*uint64(c)*uint64(h)*uint64(w) > maxElems {
		return nil, fmt.Errorf("%w: shape %d×%d×%d×%d", ErrHeader, n, c, h, w)
	}
	if nScales > maxScales || payloadLen > maxPayload {
		return nil, fmt.Errorf("%w: %d scales, %d payload bytes", ErrHeader, nScales, payloadLen)
	}
	want := uint64(HeaderSize) + 4*uint64(nScales) + uint64(payloadLen)
	if uint64(len(b)) < want {
		return nil, fmt.Errorf("%w: %d bytes, frame declares %d", ErrTruncated, len(b), want)
	}
	if uint64(len(b)) > want {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrHeader, uint64(len(b))-want)
	}
	if got, wantCRC := checksum(b), le.Uint32(b[32:]); got != wantCRC {
		return nil, fmt.Errorf("%w: crc32c %08x, header declares %08x", ErrChecksum, got, wantCRC)
	}
	f := &Frame{
		Codec: codec,
		Kind:  b[6],
		Shape: tensor.Shape{N: int(n), C: int(c), H: int(h), W: int(w)},
	}
	if nScales > 0 {
		f.Scales = make([]float32, nScales)
		for i := range f.Scales {
			f.Scales[i] = math.Float32frombits(le.Uint32(b[HeaderSize+4*i:]))
		}
	}
	f.Payload = b[HeaderSize+4*int(nScales):]
	return f, nil
}
