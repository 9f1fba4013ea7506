package compress

import (
	"jpegact/internal/dct"
	"jpegact/internal/frame"
	"jpegact/internal/quant"
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
	// Recovered is the reconstruction the backward pass reads, decoded
	// from the activation's frame; nil when only a mask is kept (BRC).
	Recovered *tensor.Tensor
	// Mask is the BRC sign mask when Recovered is nil.
	Mask []bool
	// CompressedBytes is the frame's payload plus its scales: the
	// offloaded footprint the paper's ratios count (no container header).
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

// Method is one activation-compression scheme of Table I. What it does
// to each activation is Select's row for it; internal/offload/codec
// encodes and decodes the frames, and its Pipeline.Compress is the round
// trip through them. The set is closed: every Method embeds sealed, so
// Select knows them all.
type Method interface {
	Name() string
	tableI()
}

// sealed marks the methods Select has a row for.
type sealed struct{}

func (sealed) tableI() {}

// Baseline stores activations uncompressed (the vDNN offload setting).
type Baseline struct{ sealed }

func (Baseline) Name() string { return "baseline" }

// CDMAPlus is the re-implemented cDMA of Rhu et al. as a DMA-side method:
// lossless ZVC over 32-bit values for sparse activations, no compression
// for dense conv/sum outputs.
type CDMAPlus struct{ sealed }

func (CDMAPlus) Name() string { return "cDMA+" }

// GIST implements the functional behaviour of Jain et al.'s GIST: 8-bit
// DPR for dense activations, BRC for ReLU-to-other, and DPR+CSR sparse
// storage for the remaining sparse kinds.
type GIST struct{ sealed }

func (GIST) Name() string { return "GIST" }

// SFPROnly applies Scaled Fix-point Precision Reduction to every
// activation kind — the "SFPR" column of Table I (a fixed 4× ratio plus
// scale storage).
type SFPROnly struct{ sealed }

func (SFPROnly) Name() string { return "SFPR" }

// JPEG is the transform-coding method: JPEG-BASE or JPEG-ACT depending on
// the back end, with the Table II policy for non-conv kinds and a
// piece-wise DQT schedule.
type JPEG struct {
	sealed
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

func (j *JPEG) Name() string { return j.MethodName }

// JPEGApplicable reports whether the 8×8 transform applies: the reshaped
// activation must be at least one block in both dimensions (NCH,W ≥ 8,8).
// It is Table II's size condition, which Select asks.
func JPEGApplicable(sh tensor.Shape) bool {
	return sh.N*sh.C*sh.H >= dct.BlockSize && sh.W >= dct.BlockSize
}

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

// Select is Table II: the frame codec method m applies to an activation
// of kind k and shape sh. It is the one
// statement of the policy — the codec layer encodes by it, PolicyFor
// prints it and Lossless reads it. The JPEG methods transform a conv/sum
// activation only when it tiles into 8×8 blocks (JPEGApplicable); any
// other kind but ReLU-to-other, and a smaller conv/sum, takes their
// default row: SFPR+ZVC under JPEG-ACT, SFPR under JPEG-BASE.
func Select(m Method, k Kind, sh tensor.Shape) frame.Codec {
	switch m := m.(type) {
	case Baseline:
		return frame.CodecGradRaw
	case CDMAPlus:
		if k == KindConv {
			return frame.CodecGradRaw
		}
		return frame.CodecZVC32
	case GIST:
		switch k {
		case KindReLUToOther:
			return frame.CodecBRC
		case KindReLUToConv, KindPoolDropout:
			return frame.CodecDPRCSR
		}
		return frame.CodecDPR
	case SFPROnly:
		return frame.CodecSFPR
	case *JPEG:
		return jpegRow(k, sh, m.Act, false)
	case *HardwareJPEGACT:
		return jpegRow(k, sh, true, true)
	}
	return 0
}

// jpegRow is Select for the JPEG methods: act picks the JPEG-ACT back
// end, cdu its cycle-counted datapath.
func jpegRow(k Kind, sh tensor.Shape, act, cdu bool) frame.Codec {
	switch {
	case k == KindReLUToOther:
		return frame.CodecBRC
	case k == KindConv && JPEGApplicable(sh) && cdu:
		return frame.CodecCDU
	case k == KindConv && JPEGApplicable(sh) && act:
		return frame.CodecJPEG
	case k == KindConv && JPEGApplicable(sh):
		return frame.CodecRLE
	case act:
		return frame.CodecZVC
	}
	return frame.CodecSFPR
}

// policyNames are Table II's names for the frame codecs.
var policyNames = map[frame.Codec]string{
	frame.CodecGradRaw: "none",
	frame.CodecZVC32:   "ZVC",
	frame.CodecDPR:     "DPR",
	frame.CodecDPRCSR:  "DPR+CSR",
	frame.CodecBRC:     "BRC",
	frame.CodecSFPR:    "SFPR",
	frame.CodecZVC:     "SFPR+ZVC",
	frame.CodecJPEG:    "SFPR+DCT+SH+ZVC",
	frame.CodecRLE:     "SFPR+DCT+DIV+RLE",
	frame.CodecCDU:     "CDU(SFPR+DCT+SH+ZVC)",
}

// tileable is an activation shape the 8×8 transform applies to, and
// untileable one it does not.
var (
	tileable   = tensor.Shape{N: 1, C: 1, H: 8, W: 8}
	untileable = tensor.Shape{N: 1, C: 1, H: 1, W: 1}
)

// PolicyFor names the coder Select gives method m for activation kind k,
// at a size the 8×8 transform applies to (see Select for smaller ones).
func PolicyFor(m Method, k Kind) string {
	if name, ok := policyNames[Select(m, k, tileable)]; ok {
		return name
	}
	return "unknown"
}

// Lossless reports whether m reconstructs every activation bit for bit:
// whether every codec it selects is raw float32 or float32 ZVC, the only
// lossless coders of Table I.
func Lossless(m Method) bool {
	for k := KindConv; k <= KindPoolDropout; k++ {
		for _, sh := range []tensor.Shape{tileable, untileable} {
			if c := Select(m, k, sh); c != frame.CodecGradRaw && c != frame.CodecZVC32 {
				return false
			}
		}
	}
	return true
}
