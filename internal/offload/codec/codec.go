// Package codec is the pure compression layer of the offload stack: it
// turns an activation tensor into a self-describing frame and back,
// reusing the internal/compress pipelines (JPEG-ACT SH+ZVC, SFPR+ZVC,
// BRC), one per frame codec. It performs no I/O, touches no channel and
// keeps no state — encode and decode are deterministic pure functions of
// (DQT, S, input), which is what lets the async scheduler run them on any
// worker at any time without changing a single output bit.
package codec

import (
	"fmt"

	"jpegact/internal/coding"
	"jpegact/internal/compress"
	"jpegact/internal/dct"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// Pipeline is one configured codec set: the quantization table and SFPR
// scale shared by every codec. It is a cheap value.
type Pipeline struct {
	DQT quant.DQT
	S   float64
}

// New builds a pipeline with the paper's default SFPR scale.
func New(d quant.DQT) Pipeline { return Pipeline{DQT: d, S: sfpr.DefaultS} }

// Encoded is the result of encoding one activation: the frame to ship,
// plus the BRC sign mask when the BRC codec was selected (the mask never
// leaves the GPU; the frame exists only for accounting).
type Encoded struct {
	Frame *frame.Frame
	Mask  []bool
}

// Select implements the Table II policy at the frame level: ReLU→other
// activations keep only the sign mask (BRC); dense conv inputs big
// enough to tile into 8×8 blocks go through the JPEG-ACT DCT path; all
// remaining kinds and small tensors fall back to SFPR+ZVC.
func Select(kind compress.Kind, sh tensor.Shape) frame.Codec {
	switch {
	case kind == compress.KindReLUToOther:
		return frame.CodecBRC
	case kind == compress.KindConv && compress.JPEGApplicable(sh):
		return frame.CodecJPEG
	default:
		return frame.CodecZVC
	}
}

// Encode compresses x as an activation of the given kind into a frame,
// selecting the codec per the Table II policy.
func (p Pipeline) Encode(kind compress.Kind, x *tensor.Tensor) (Encoded, error) {
	switch c := Select(kind, x.Shape); c {
	case frame.CodecBRC:
		return encodeBRC(kind, x), nil
	case frame.CodecJPEG:
		return p.encodeJPEG(kind, x), nil
	case frame.CodecZVC:
		return p.encodeZVC(kind, x), nil
	default:
		return Encoded{}, fmt.Errorf("codec: no encoder for %s", c)
	}
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
// codec writes every element exactly once, straight from the frame bytes
// — JPEG-ACT one 8×8 block at a time, SFPR one run of codes at a time,
// shards in parallel — with no intermediate plane. A BRC frame writes
// nothing (dst may be nil). On error dst holds a partial decode.
func (p Pipeline) DecodeInto(f *frame.Frame, dst *tensor.Tensor) error {
	if err := check(f); err != nil || f.Codec == frame.CodecBRC {
		return err
	}
	if dst.Shape != f.Shape {
		return fmt.Errorf("codec: %v destination for a %v frame", dst.Shape, f.Shape)
	}
	switch f.Codec {
	case frame.CodecJPEG:
		pl := p.jpeg()
		return pl.DecodeInto(f.Payload, f.Scales, dst)
	case frame.CodecZVC:
		return decodeZVCInto(f, dst)
	default:
		return p.DecodeGradientInto(f, dst.Data)
	}
}

// check holds a frame's header to what its codec can decode, before
// anything is sized from it.
func check(f *frame.Frame) error {
	switch f.Codec {
	case frame.CodecBRC:
		return nil
	case frame.CodecJPEG:
		return checkZVCFrame(f, tensor.BlockPadInfo(f.Shape, dct.BlockSize).PaddedElems())
	case frame.CodecZVC:
		return checkZVCFrame(f, f.Shape.Elems())
	case frame.CodecGradRaw:
		return checkGradFrame(f)
	}
	return fmt.Errorf("%w: codec %s", frame.ErrHeader, f.Codec)
}

// jpeg returns the JPEG-ACT pipeline with the codec set's table and scale.
func (p Pipeline) jpeg() compress.Pipeline {
	pl := compress.JPEGAct(p.DQT)
	pl.S = p.S
	return pl
}

func encodeBRC(kind compress.Kind, x *tensor.Tensor) Encoded {
	f := &frame.Frame{Codec: frame.CodecBRC, Kind: uint8(kind), Shape: x.Shape}
	var mask []bool
	f.Payload, mask = coding.EncodeBRC(x.Data)
	return Encoded{Frame: f, Mask: mask}
}

func (p Pipeline) encodeJPEG(kind compress.Kind, x *tensor.Tensor) Encoded {
	f := &frame.Frame{Codec: frame.CodecJPEG, Kind: uint8(kind), Shape: x.Shape}
	pl := p.jpeg()
	f.Payload, f.Scales = pl.Encode(x)
	return Encoded{Frame: f}
}

// checkZVCFrame is what every ZVC-coded frame is held to before
// anything is sized from its header: one scale per channel, and a payload
// with at least the one mask byte per eight values a ZVC stream of that
// many values needs. The header's shape is bounded only by the
// container's element cap, so a few hundred well-checksummed bytes could
// otherwise ask for a quarter-gigabyte scratch buffer.
func checkZVCFrame(f *frame.Frame, values int) error {
	if len(f.Scales) != f.Shape.C {
		return fmt.Errorf("%w: %d scales for %d channels", frame.ErrHeader, len(f.Scales), f.Shape.C)
	}
	if len(f.Payload) < (values+7)/8 {
		return fmt.Errorf("%w: %d payload bytes cannot hold %d values", coding.ErrCorrupt, len(f.Payload), values)
	}
	return nil
}

// decodeBlocks decodes a JPEG-ACT frame as far as its quantized
// coefficient blocks, in a slice borrowed from the compress scratch pool
// that the caller owns (compress.ReleaseBlocks) when err is nil.
func decodeBlocks(f *frame.Frame) ([][64]int8, tensor.PadInfo, error) {
	info := tensor.BlockPadInfo(f.Shape, dct.BlockSize)
	if err := checkZVCFrame(f, info.PaddedElems()); err != nil {
		return nil, info, err
	}
	blocks := compress.BorrowBlocks(info.PaddedElems() / 64)
	if err := coding.DecodeZVCBlocksInto(blocks, f.Payload); err != nil {
		compress.ReleaseBlocks(blocks)
		return nil, info, err
	}
	return blocks, info, nil
}

func (p Pipeline) encodeZVC(kind compress.Kind, x *tensor.Tensor) Encoded {
	f := &frame.Frame{Codec: frame.CodecZVC, Kind: uint8(kind), Shape: x.Shape}
	f.Scales = make([]float32, x.Shape.C)
	codes := compress.BorrowCodes(x.Elems())
	sfpr.CompressInto(x, p.S, f.Scales, codes)
	f.Payload = coding.EncodeZVC(codes)
	compress.ReleaseCodes(codes)
	return Encoded{Frame: f}
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
