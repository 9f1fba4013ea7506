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

// Decode reconstructs the tensor a validated frame describes: nil for a
// BRC frame, whose mask was attached to the ref at offload time and
// never left the GPU (the host frame exists only for accounting).
func (p Pipeline) Decode(f *frame.Frame) (*tensor.Tensor, error) {
	switch f.Codec {
	case frame.CodecBRC:
		return nil, nil
	case frame.CodecJPEG:
		return p.decodeJPEG(f)
	case frame.CodecZVC:
		return decodeZVC(f)
	case frame.CodecGradRaw:
		return p.decodeGradRaw(f)
	default:
		return nil, fmt.Errorf("%w: codec %s", frame.ErrHeader, f.Codec)
	}
}

func encodeBRC(kind compress.Kind, x *tensor.Tensor) Encoded {
	f := &frame.Frame{Codec: frame.CodecBRC, Kind: uint8(kind), Shape: x.Shape}
	var mask []bool
	f.Payload, mask = coding.EncodeBRC(x.Data)
	return Encoded{Frame: f, Mask: mask}
}

func (p Pipeline) encodeJPEG(kind compress.Kind, x *tensor.Tensor) Encoded {
	pl := compress.JPEGAct(p.DQT)
	pl.S = p.S
	blocks, scales, _ := pl.QuantizeBlocks(x)
	f := &frame.Frame{Codec: frame.CodecJPEG, Kind: uint8(kind), Shape: x.Shape}
	f.Payload = coding.EncodeZVCBlocks(blocks)
	compress.ReleaseBlocks(blocks)
	f.Scales = scales
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

func (p Pipeline) decodeJPEG(f *frame.Frame) (*tensor.Tensor, error) {
	blocks, info, err := decodeBlocks(f)
	if err != nil {
		return nil, err
	}
	defer compress.ReleaseBlocks(blocks)
	pl := compress.JPEGAct(p.DQT)
	pl.S = p.S
	return pl.ReconstructBlocks(blocks, f.Scales, info), nil
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

func decodeZVC(f *frame.Frame) (*tensor.Tensor, error) {
	n := f.Shape.Elems()
	if err := checkZVCFrame(f, n); err != nil {
		return nil, err
	}
	codes := compress.BorrowCodes(n)
	defer compress.ReleaseCodes(codes)
	if err := coding.DecodeZVCInto(codes, f.Payload); err != nil {
		return nil, err
	}
	out := tensor.New(f.Shape.N, f.Shape.C, f.Shape.H, f.Shape.W)
	sfpr.DequantizeInto(codes, f.Scales, out)
	return out, nil
}
