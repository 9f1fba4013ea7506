// Package codec is the pure compression layer of the offload stack: it
// turns an activation tensor into a self-describing frame and back, one
// frame codec per Table I back end — raw float32, float32 ZVC, FP8 DPR
// and DPR+CSR, BRC, raw SFPR codes, SFPR+ZVC, JPEG-BASE's DIV+RLE,
// JPEG-ACT's SH+ZVC and the CDU stream — picked per activation by
// compress.Select. It performs no I/O, touches no channel and keeps no
// state — encode and decode are deterministic pure functions of (method,
// DQT, S, input), which is what lets the async scheduler run them on any
// worker at any time without changing a single output bit. A method's
// round trip (Pipeline.Compress) is decode(encode(x)) through the same
// frames.
package codec

import (
	"encoding/binary"
	"fmt"

	"jpegact/internal/coding"
	"jpegact/internal/compress"
	"jpegact/internal/dct"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// Pipeline is one method's frame codec set at one epoch: the method,
// whose Table II row (compress.Select) picks each activation's codec, the
// quantization table its schedule gives the epoch, and the SFPR scale. It
// is a cheap value; the zero method is JPEG-ACT.
type Pipeline struct {
	DQT quant.DQT
	S   float64
	m   compress.Method
}

// jpegACT is the method New's pipelines run; the table is the
// pipeline's own.
var jpegACT compress.Method = &compress.JPEG{Act: true}

// New builds the JPEG-ACT pipeline with table d and the paper's default
// SFPR scale.
func New(d quant.DQT) Pipeline { return Pipeline{DQT: d, S: sfpr.DefaultS, m: jpegACT} }

// For builds method m's pipeline at the given training epoch: the JPEG
// methods' schedules pick the epoch's table.
func For(m compress.Method, epoch int) Pipeline {
	p := Pipeline{S: sfpr.DefaultS, m: m}
	switch m := m.(type) {
	case *compress.JPEG:
		p.DQT = *m.Schedule.For(epoch)
	case *compress.HardwareJPEGACT:
		p.DQT = *m.Schedule.For(epoch)
	}
	return p
}

// Select is compress.Select's JPEG-ACT row. It is kept for bench/, and
// goes with the rest of ROADMAP direction 1's list.
func Select(kind compress.Kind, sh tensor.Shape) frame.Codec {
	return compress.Select(jpegACT, kind, sh)
}

func (p Pipeline) method() compress.Method {
	if p.m == nil {
		return jpegACT
	}
	return p.m
}

// Encoded is the result of encoding one activation: the frame to ship,
// plus the BRC sign mask when the BRC codec was selected (the mask never
// leaves the GPU; the frame exists only for accounting).
type Encoded struct {
	Frame *frame.Frame
	Mask  []bool
}

// Encode compresses x as an activation of the given kind into a frame,
// with the codec the pipeline's method selects for it.
func (p Pipeline) Encode(kind compress.Kind, x *tensor.Tensor) (Encoded, error) {
	c := compress.Select(p.method(), kind, x.Shape)
	f := &frame.Frame{Codec: c, Kind: uint8(kind), Shape: x.Shape}
	var mask []bool
	switch c {
	case frame.CodecBRC:
		f.Payload, mask = coding.EncodeBRC(x.Data)
	case frame.CodecJPEG:
		pl := p.jpeg(true)
		f.Payload, f.Scales = pl.Encode(x)
	case frame.CodecRLE:
		pl := p.jpeg(false)
		f.Payload, f.Scales = pl.EncodeRLE(x)
	case frame.CodecCDU:
		f.Payload, f.Scales = p.m.(*compress.HardwareJPEGACT).EncodeCDU(x, p.DQT, p.S)
	case frame.CodecZVC:
		f.Scales = p.scales(x)
		f.Payload = encodeZVC(x, f.Scales)
	case frame.CodecSFPR:
		f.Scales = p.scales(x)
		f.Payload = make([]byte, x.Elems())
		for lo := 0; lo < len(f.Payload); lo += coding.ZVCShard {
			var buf [coding.ZVCShard]int8
			run := buf[:min(coding.ZVCShard, len(f.Payload)-lo)]
			sfpr.QuantizeRun(x.Data, lo, x.Shape, f.Scales, run)
			for i, v := range run {
				f.Payload[lo+i] = byte(v)
			}
		}
	case frame.CodecGradRaw:
		f.Payload = encodeRaw(x.Data)
	case frame.CodecZVC32:
		f.Payload = coding.EncodeZVC32(x.Data)
	case frame.CodecDPR:
		f.Payload = make([]byte, len(x.Data))
		for i, v := range x.Data {
			f.Payload[i] = sfpr.FP8Code(v)
		}
	case frame.CodecDPRCSR:
		codes := make([]int8, len(x.Data))
		for i, v := range x.Data {
			codes[i] = int8(sfpr.FP8Code(v))
		}
		f.Payload = coding.EncodeCSR(codes, csrWidth(len(codes)))
	default:
		return Encoded{}, fmt.Errorf("codec: %s selects no codec for %v", p.method().Name(), kind)
	}
	return Encoded{Frame: f, Mask: mask}, nil
}

// Compress is the method's round trip through its frame codec: x
// encoded as an activation of the given kind, then decoded into a fresh
// tensor — or, for BRC, only the sign mask. The byte count is the frame's
// payload plus its scales. Select has a row for every method and each
// codec decodes what it encodes, so a failure is a bug and panics.
func (p Pipeline) Compress(kind compress.Kind, x *tensor.Tensor) compress.Result {
	enc, err := p.Encode(kind, x)
	if err != nil {
		panic(err)
	}
	f := enc.Frame
	res := compress.Result{Mask: enc.Mask, CompressedBytes: len(f.Payload) + 4*len(f.Scales), OriginalBytes: x.Bytes()}
	if res.Recovered, err = p.Decode(f); err != nil {
		panic("codec: " + f.Codec.String() + " frame does not decode: " + err.Error())
	}
	return res
}

// Decode reconstructs the tensor a validated frame describes into a
// fresh heap tensor (DecodeInto): nil for a BRC frame, whose mask was
// attached to the ref at offload time and never left the GPU (the host
// frame exists only for accounting). The header is checked before the
// tensor is sized from it.
func (p Pipeline) Decode(f *frame.Frame) (*tensor.Tensor, error) {
	if err := check(f); err != nil || f.Codec == frame.CodecBRC {
		return nil, err
	}
	out := tensor.New(f.Shape.N, f.Shape.C, f.Shape.H, f.Shape.W)
	if err := p.DecodeInto(f, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto reconstructs the tensor a validated frame describes into
// dst, which must have the frame's shape and may hold anything: each
// codec writes every element, straight from the frame bytes — JPEG-ACT
// one 8×8 block at a time, SFPR one run of codes at a time, shards in
// parallel — with no intermediate plane where the coder allows it. A BRC
// frame writes nothing (dst may be nil). On error dst holds a partial
// decode.
func (p Pipeline) DecodeInto(f *frame.Frame, dst *tensor.Tensor) error {
	if err := check(f); err != nil || f.Codec == frame.CodecBRC {
		return err
	}
	if dst.Shape != f.Shape {
		return fmt.Errorf("codec: %v destination for a %v frame", dst.Shape, f.Shape)
	}
	switch f.Codec {
	case frame.CodecJPEG:
		pl := p.jpeg(true)
		return pl.DecodeInto(f.Payload, f.Scales, dst)
	case frame.CodecRLE:
		pl := p.jpeg(false)
		return pl.DecodeRLEInto(f.Payload, f.Scales, dst)
	case frame.CodecCDU:
		return compress.DecodeCDUInto(f.Payload, f.Scales, p.DQT, dst)
	case frame.CodecZVC:
		return decodeZVCInto(f, dst)
	case frame.CodecSFPR:
		for lo := 0; lo < len(f.Payload); lo += coding.ZVCShard {
			var buf [coding.ZVCShard]int8
			run := f.Payload[lo:min(lo+coding.ZVCShard, len(f.Payload))]
			for i, b := range run {
				buf[i] = int8(b)
			}
			sfpr.DequantizeRun(buf[:len(run)], lo, f.Shape, f.Scales, dst.Data)
		}
	case frame.CodecGradRaw:
		decodeRaw(f.Payload, dst.Data)
	case frame.CodecZVC32:
		return coding.DecodeZVC32Into(dst.Data, f.Payload)
	case frame.CodecDPR:
		for i, c := range f.Payload {
			dst.Data[i] = sfpr.FP8Value(c)
		}
	case frame.CodecDPRCSR:
		codes := make([]int8, len(dst.Data))
		if err := coding.DecodeCSRInto(codes, f.Payload); err != nil {
			return err
		}
		for i, c := range codes {
			dst.Data[i] = sfpr.FP8Value(byte(c))
		}
	}
	return nil
}

// check holds a frame's header to what its codec can decode, before
// anything is sized from it. The header's shape is bounded only by the
// container's element cap, so a few hundred well-checksummed bytes could
// otherwise ask for a quarter-gigabyte buffer: every codec bounds its
// payload by the shape first (a ZVC stream needs one mask byte per eight
// values, a CDU block at least its eight mask bytes, …).
func check(f *frame.Frame) error {
	n, ch := f.Shape.Elems(), f.Shape.C
	blocks := tensor.BlockPadInfo(f.Shape, dct.BlockSize).PaddedElems() / 64
	switch f.Codec {
	case frame.CodecBRC:
		return nil
	case frame.CodecJPEG:
		return checkZVCFrame(f, 64*blocks)
	case frame.CodecZVC:
		return checkZVCFrame(f, n)
	case frame.CodecGradRaw:
		return checkSizes(f, 0, 4*n, 4*n)
	case frame.CodecZVC32:
		return checkSizes(f, 0, (n+7)/8, (n+7)/8+4*n)
	case frame.CodecDPR:
		return checkSizes(f, 0, n, n)
	case frame.CodecDPRCSR:
		rows := n / csrWidth(n)
		if err := checkSizes(f, 0, 1+2*rows, 1+2*rows+2*n); err != nil {
			return err
		}
		if w := int(f.Payload[0]) + 1; w != csrWidth(n) {
			return fmt.Errorf("%w: CSR rows of %d values for a %d-value frame", coding.ErrCorrupt, w, n)
		}
		return nil
	case frame.CodecSFPR:
		return checkSizes(f, ch, n, n)
	case frame.CodecRLE:
		// Four count bytes, then at least two coded bits per block.
		if err := checkSizes(f, ch, 4+blocks/4, maxPayload); err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint32(f.Payload); uint64(got) != uint64(blocks) {
			return fmt.Errorf("%w: %d blocks coded for a %v frame of %d", coding.ErrCorrupt, got, f.Shape, blocks)
		}
		return nil
	case frame.CodecCDU:
		return checkSizes(f, ch, 8*blocks, 72*blocks)
	}
	return fmt.Errorf("%w: codec %s", frame.ErrHeader, f.Codec)
}

// maxPayload is a payload bound no frame reaches.
const maxPayload = int(^uint(0) >> 1)

// checkSizes holds a frame to scales scales (one per channel, or none)
// and a payload of lo to hi bytes.
func checkSizes(f *frame.Frame, scales, lo, hi int) error {
	if len(f.Scales) != scales {
		return fmt.Errorf("%w: %d scales on a %s frame of %d channels", frame.ErrHeader, len(f.Scales), f.Codec, f.Shape.C)
	}
	if len(f.Payload) < lo || len(f.Payload) > hi {
		return fmt.Errorf("%w: %d payload bytes for a %v %s frame", coding.ErrCorrupt, len(f.Payload), f.Shape, f.Codec)
	}
	return nil
}

// checkZVCFrame is what every ZVC-coded frame is held to: one scale per
// channel, and a payload with at least the one mask byte per eight
// values a ZVC stream of that many values needs.
func checkZVCFrame(f *frame.Frame, values int) error {
	return checkSizes(f, f.Shape.C, (values+7)/8, maxPayload)
}

// csrWidth is the CSR row width GIST's sparse storage uses for n values:
// 256, halved until it divides n.
func csrWidth(n int) int {
	w := 256
	for n%w != 0 {
		w /= 2
	}
	return w
}

// jpeg returns the JPEG pipeline with the codec set's table and scale:
// the SH quantizer of JPEG-ACT, or JPEG-BASE's DIV.
func (p Pipeline) jpeg(shift bool) compress.Pipeline {
	return compress.Pipeline{DQT: p.DQT, UseShift: shift, S: p.S}
}

// scales returns x's per-channel SFPR scales under the pipeline's S.
func (p Pipeline) scales(x *tensor.Tensor) []float32 {
	scales := make([]float32, x.Shape.C)
	sfpr.ComputeScales(x, p.S, scales)
	return scales
}

// encodeZVC codes x's SFPR codes under scales as decodeZVCInto decodes
// them: each shard of the stream casts its run of x into a stack buffer
// (sfpr.QuantizeRun) and codes it into the shard's window.
func encodeZVC(x *tensor.Tensor, scales []float32) []byte {
	n := x.Elems()
	return coding.EncodeZVCShards((n+coding.ZVCShard-1)/coding.ZVCShard, func(s int, win []byte) int {
		var buf [coding.ZVCShard]int8
		lo := s * coding.ZVCShard
		codes := buf[:min(coding.ZVCShard, n-lo)]
		sfpr.QuantizeRun(x.Data, lo, x.Shape, scales, codes)
		return coding.EncodeZVCRun(win, 0, codes)
	})
}

// decodeZVCInto decodes an SFPR+ZVC frame: each shard of the stream
// decodes into a stack buffer, which sfpr.DequantizeRun recovers straight
// into dst.
func decodeZVCInto(f *frame.Frame, dst *tensor.Tensor) error {
	n := f.Shape.Elems()
	return coding.DecodeZVCShards(f.Payload, n, func(s, p int) bool {
		var buf [coding.ZVCShard]int8
		lo := s * coding.ZVCShard
		codes := buf[:min(coding.ZVCShard, n-lo)]
		if _, ok := coding.DecodeZVCRun(codes, f.Payload, p); !ok {
			return false
		}
		sfpr.DequantizeRun(codes, lo, f.Shape, f.Scales, dst.Data)
		return true
	})
}
