package compress

import (
	"jpegact/internal/coding"
	"jpegact/internal/dct"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// Kind classifies an activation for the policy of Table II.
type Kind int

const (
	// KindConv is a dense conv or residual-sum output.
	KindConv Kind = iota
	// KindReLUToOther is a ReLU output not consumed by a conv layer: only
	// its sign mask is needed in the backward pass, so BRC applies.
	KindReLUToOther
	// KindReLUToConv is a ReLU output consumed by a conv layer: the values
	// themselves are needed.
	KindReLUToConv
	// KindPoolDropout is a pooling or dropout output.
	KindPoolDropout
	// KindGradient is a flattened weight-gradient chunk exchanged by the
	// data-parallel trainer — signed, near-Gaussian values, unlike the
	// nonnegative post-ReLU activations the other kinds describe.
	KindGradient
)

// String names the kind as in Table II.
func (k Kind) String() string {
	switch k {
	case KindConv:
		return "conv/sum"
	case KindReLUToOther:
		return "ReLU(to other)"
	case KindReLUToConv:
		return "ReLU(to conv)"
	case KindPoolDropout:
		return "pool/dropout"
	case KindGradient:
		return "gradient"
	}
	return "unknown"
}

// Result describes one compressed activation.
type Result struct {
	// Recovered is the lossy reconstruction to be used in the backward
	// pass: x itself where the method is lossless for it, nil when only a
	// mask is stored (BRC).
	Recovered *tensor.Tensor
	// Mask is the BRC sign mask when Recovered is nil.
	Mask []bool
	// CompressedBytes is the offloaded footprint.
	CompressedBytes int
	// OriginalBytes is the float32 footprint.
	OriginalBytes int
}

// Ratio returns the compression ratio (original / compressed).
func (r Result) Ratio() float64 {
	if r.CompressedBytes == 0 {
		return 1
	}
	return float64(r.OriginalBytes) / float64(r.CompressedBytes)
}

// Method is one activation-compression scheme. Epoch is passed so
// piece-wise DQT schedules (optL5H) can switch tables during training.
type Method interface {
	Name() string
	Compress(x *tensor.Tensor, kind Kind, epoch int) Result
	// Lossless reports whether reconstruction is bit-exact.
	Lossless() bool
}

// ---------------------------------------------------------------------------

// Baseline stores activations uncompressed (the vDNN offload setting).
// Like CDMAPlus, it recovers x itself: a lossless round trip has nothing
// to copy.
type Baseline struct{}

func (Baseline) Name() string   { return "baseline" }
func (Baseline) Lossless() bool { return true }

func (Baseline) Compress(x *tensor.Tensor, _ Kind, _ int) Result {
	return Result{Recovered: x, CompressedBytes: x.Bytes(), OriginalBytes: x.Bytes()}
}

// ---------------------------------------------------------------------------

// CDMAPlus is the re-implemented cDMA of Rhu et al. as a DMA-side method:
// lossless ZVC over 32-bit values for sparse activations, no compression
// for dense conv/sum outputs.
type CDMAPlus struct{}

func (CDMAPlus) Name() string   { return "cDMA+" }
func (CDMAPlus) Lossless() bool { return true }

func (CDMAPlus) Compress(x *tensor.Tensor, kind Kind, _ int) Result {
	orig := x.Bytes()
	if kind == KindConv {
		return Result{Recovered: x, CompressedBytes: orig, OriginalBytes: orig}
	}
	// ZVC over float32: one mask byte per eight values + 4B per non-zero.
	groups := (x.Elems() + 7) / 8
	nz := 0
	for _, v := range x.Data {
		if v != 0 {
			nz++
		}
	}
	return Result{Recovered: x, CompressedBytes: groups + 4*nz, OriginalBytes: orig}
}

// ---------------------------------------------------------------------------

// GIST implements the functional behaviour of Jain et al.'s GIST: 8-bit
// DPR for dense activations, BRC for ReLU-to-other, and DPR+CSR sparse
// storage for the remaining sparse kinds.
type GIST struct{}

func (GIST) Name() string   { return "GIST" }
func (GIST) Lossless() bool { return false }

func (GIST) Compress(x *tensor.Tensor, kind Kind, _ int) Result {
	orig := x.Bytes()
	f := sfpr.FP8
	switch kind {
	case KindReLUToOther:
		_, mask := coding.EncodeBRC(x.Data)
		return Result{Mask: mask, CompressedBytes: (x.Elems() + 7) / 8, OriginalBytes: orig}
	case KindReLUToConv, KindPoolDropout:
		rec := sfpr.DPR(x, f)
		codes := sfpr.DPRInt8Codes(x, f)
		width := 256
		for len(codes)%width != 0 {
			width /= 2
		}
		return Result{Recovered: rec, CompressedBytes: coding.CSRSize(codes, width), OriginalBytes: orig}
	default:
		rec := sfpr.DPR(x, f)
		return Result{Recovered: rec, CompressedBytes: x.Elems(), OriginalBytes: orig}
	}
}

// ---------------------------------------------------------------------------

// SFPROnly applies Scaled Fix-point Precision Reduction to every
// activation kind — the "SFPR" column of Table I (a fixed 4× ratio plus
// scale storage).
type SFPROnly struct{}

func (SFPROnly) Name() string   { return "SFPR" }
func (SFPROnly) Lossless() bool { return false }

func (SFPROnly) Compress(x *tensor.Tensor, _ Kind, _ int) Result {
	rec, bytes := sfpr.Roundtrip(x, sfpr.DefaultS)
	return Result{Recovered: rec, CompressedBytes: bytes, OriginalBytes: x.Bytes()}
}

// ---------------------------------------------------------------------------

// JPEG is the transform-coding method: JPEG-BASE or JPEG-ACT depending on
// the pipeline configuration, with the Table II policy for non-conv kinds
// and a piece-wise DQT schedule.
type JPEG struct {
	MethodName string
	Schedule   quant.Schedule
	Act        bool // true = JPEG-ACT back end (SH+ZVC), false = JPEG-BASE (DIV+RLE)
}

// NewJPEGBase builds the JPEG-BASE method with a fixed image DQT.
func NewJPEGBase(d quant.DQT) *JPEG {
	return &JPEG{MethodName: "JPEG-BASE/" + d.Name, Schedule: quant.Fixed(d), Act: false}
}

// NewJPEGAct builds the JPEG-ACT method with the given DQT schedule.
func NewJPEGAct(s quant.Schedule) *JPEG {
	return &JPEG{MethodName: "JPEG-ACT/" + s.Name, Schedule: s, Act: true}
}

func (j *JPEG) Name() string   { return j.MethodName }
func (j *JPEG) Lossless() bool { return false }

// JPEGApplicable reports whether the 8×8 transform applies: the reshaped
// activation must be at least one block in both dimensions (NCH,W ≥ 8,8).
// It is the one statement of Table II's size condition: the methods here
// and the offload store's codec.Select both ask it.
func JPEGApplicable(sh tensor.Shape) bool {
	return sh.N*sh.C*sh.H >= dct.BlockSize && sh.W >= dct.BlockSize
}

func (j *JPEG) pipeline(epoch int) Pipeline {
	return Pipeline{DQT: *j.Schedule.For(epoch), UseShift: j.Act, UseZVC: j.Act, S: sfpr.DefaultS}
}

func (j *JPEG) Compress(x *tensor.Tensor, kind Kind, epoch int) Result {
	orig := x.Bytes()
	switch kind {
	case KindReLUToOther:
		_, mask := coding.EncodeBRC(x.Data)
		return Result{Mask: mask, CompressedBytes: (x.Elems() + 7) / 8, OriginalBytes: orig}
	case KindReLUToConv, KindPoolDropout:
		return j.noTransform(x)
	default:
		if !JPEGApplicable(x.Shape) {
			return j.noTransform(x)
		}
		p := j.pipeline(epoch)
		rec, bytes := p.Roundtrip(x)
		return Result{Recovered: rec, CompressedBytes: bytes, OriginalBytes: orig}
	}
}

// noTransform is the no-transform row of Table II — the sparse kinds, and a
// conv/sum activation too small to tile into 8×8 blocks: SFPR, plus ZVC
// under JPEG-ACT. It accounts exactly the bytes the offload store frames
// for the same tensor (codec.Select's CodecZVC: payload + scales).
func (j *JPEG) noTransform(x *tensor.Tensor) Result {
	c := sfpr.Compress(x, sfpr.DefaultS)
	bytes := len(c.Values) + 4*len(c.Scales)
	if j.Act {
		bytes = coding.ZVCSize(c.Values) + 4*len(c.Scales)
	}
	return Result{Recovered: sfpr.Decompress(c), CompressedBytes: bytes, OriginalBytes: x.Bytes()}
}

// ---------------------------------------------------------------------------

// Standard returns the methods of Table I in paper order: baseline,
// cDMA+, GIST, SFPR, JPEG-BASE (jpeg80, jpeg60), JPEG-ACT (optL, optH,
// optL5H).
func Standard() []Method {
	return []Method{
		Baseline{},
		CDMAPlus{},
		GIST{},
		SFPROnly{},
		NewJPEGBase(quant.JPEGQuality(80)),
		NewJPEGBase(quant.JPEGQuality(60)),
		NewJPEGAct(quant.Fixed(quant.OptL())),
		NewJPEGAct(quant.Fixed(quant.OptH())),
		NewJPEGAct(quant.OptL5H()),
	}
}

// PolicyFor returns the Table II policy description for a method name and
// activation kind; it documents which coder the method applies where.
// The JPEG methods' KindConv entry is for an activation at least one 8×8
// block in both reshaped dimensions (N·C·H ≥ 8, W ≥ 8); a smaller one
// cannot be tiled and takes the method's default-row coder instead
// (SFPR+ZVC under JPEG-ACT, SFPR under JPEG-BASE).
func PolicyFor(m Method, k Kind) string {
	switch m.(type) {
	case Baseline:
		return "none"
	case CDMAPlus:
		if k == KindConv {
			return "none"
		}
		return "ZVC"
	case GIST:
		switch k {
		case KindConv:
			return "DPR"
		case KindReLUToOther:
			return "BRC"
		default:
			return "DPR+CSR"
		}
	case SFPROnly:
		return "SFPR"
	case *JPEG:
		j := m.(*JPEG)
		switch k {
		case KindConv:
			if j.Act {
				return "SFPR+DCT+SH+ZVC"
			}
			return "SFPR+DCT+DIV+RLE"
		case KindReLUToOther:
			return "BRC"
		default:
			if j.Act {
				return "SFPR+ZVC"
			}
			return "SFPR"
		}
	case *HardwareJPEGACT:
		switch k {
		case KindConv:
			return "CDU(SFPR+DCT+SH+ZVC)"
		case KindReLUToOther:
			return "BRC"
		default:
			return "SFPR+ZVC"
		}
	}
	return "unknown"
}
