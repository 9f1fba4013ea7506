package coding

import (
	"bytes"
	"strings"
	"testing"

	"jpegact/internal/frame"
	"jpegact/internal/tensor"
)

// Native fuzz targets: every decoder must return an error (or garbage
// values) on arbitrary input — never panic, never over-allocate. The
// seed corpus runs as part of the normal test suite; `go test -fuzz`
// explores further.

func FuzzDecodeJPEGBlocks(f *testing.F) {
	var blk [64]int8
	blk[0] = 5
	blk[9] = -3
	f.Add(EncodeJPEGBlocks([][64]int8{blk}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, err := DecodeJPEGBlocks(data)
		if err == nil && len(blocks) > 8*len(data) {
			t.Fatalf("decoded %d blocks from %d bytes", len(blocks), len(data))
		}
	})
}

// FuzzDecodeZVC: both decoders accept exactly what the encoders emit —
// a stream that decodes re-encodes to the same bytes (which is what lets
// internal/frame promise the same of a whole frame), through the flat
// coder for any n and through the block coder when n is whole blocks.
func FuzzDecodeZVC(f *testing.F) {
	f.Add(EncodeZVC([]int8{1, 0, 2, 0, 0, 0, 0, 3, 4}), 9)
	f.Add([]byte{0xff}, 8)
	f.Add(append(EncodeZVC([]int8{1, 0, 2, 0, 0, 0, 0, 3}), 0, 0, 0), 8) // trailing bytes
	f.Add([]byte{0x05, 1, 0}, 8)                                         // a flagged zero byte
	f.Add(EncodeZVCBlocks(makeTestBlocks(2)), 128)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<16 {
			return
		}
		out, err := DecodeZVC(data, n)
		if err == nil {
			if len(out) != n {
				t.Fatalf("decoded %d values, want %d", len(out), n)
			}
			if re := EncodeZVC(out); !bytes.Equal(re, data) {
				t.Fatalf("n=%d: stream % x decodes, but re-encodes to % x", n, data, re)
			}
		}
		if n%64 != 0 {
			return
		}
		blocks, berr := DecodeZVCBlocks(data, n/64)
		if (berr == nil) != (err == nil) {
			t.Fatalf("n=%d: flat decoder says %v, block decoder %v", n, err, berr)
		}
		if berr == nil {
			if re := EncodeZVCBlocks(blocks); !bytes.Equal(re, data) {
				t.Fatalf("n=%d: block stream decodes, but re-encodes differently", n)
			}
		}
	})
}

func FuzzDecodeRLE(f *testing.F) {
	f.Add(EncodeRLE([]int8{0, 0, 5, 0, -1}), 5)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<16 {
			return
		}
		_, _ = DecodeRLE(data, n)
	})
}

func FuzzDecodeBRC(f *testing.F) {
	packed, _ := EncodeBRC([]float32{1, -2, 0, 3, 0, 0, -1, 4, 5})
	f.Add(packed, 9)
	f.Add([]byte{}, 0)
	f.Add([]byte{0xAA}, 8)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<16 {
			return
		}
		mask, err := DecodeBRC(data, n)
		if err == nil && len(mask) != n {
			t.Fatalf("decoded %d mask bits, want %d", len(mask), n)
		}
	})
}

// FuzzDecodeFrame drives the offload container decoder with arbitrary
// bytes: it must return a typed error or a frame that re-encodes
// byte-identically — and never panic or over-allocate.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frame.EncodeFrame(&frame.Frame{
		Codec:   frame.CodecJPEG,
		Kind:    2,
		Shape:   tensor.Shape{N: 1, C: 3, H: 8, W: 8},
		Scales:  []float32{0.5, 1.25, -3},
		Payload: []byte{1, 2, 3, 0, 0, 7},
	}))
	f.Add(frame.EncodeFrame(&frame.Frame{
		Codec:   frame.CodecBRC,
		Kind:    1,
		Shape:   tensor.Shape{N: 1, C: 1, H: 4, W: 4},
		Payload: []byte{0xff, 0x0f},
	}))
	// Codec id 5 was a quantized gradient codec once; a well-checksummed
	// frame naming it is as unknown as any other id.
	f.Add(frame.EncodeFrame(&frame.Frame{
		Codec:   5,
		Kind:    4,
		Shape:   tensor.Shape{N: 1, C: 1, H: 1, W: 4},
		Scales:  []float32{0.5},
		Payload: []byte{0x0f, 1, 2, 3, 4},
	}))
	f.Add([]byte("JAFR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := frame.DecodeFrame(data)
		if err != nil {
			return
		}
		if strings.HasPrefix(fr.Codec.String(), "codec(") {
			t.Fatalf("decoded a frame of unknown %s", fr.Codec)
		}
		if re := frame.EncodeFrame(fr); !bytes.Equal(re, data) {
			t.Fatalf("decoded frame does not re-encode byte-identically")
		}
	})
}

func FuzzDecodeCSR(f *testing.F) {
	f.Add(EncodeCSR([]int8{0, 1, 0, 2, 0, 0, 3, 0}, 4), 8)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<16 {
			return
		}
		_, _ = decodeCSR(data, n)
	})
}
