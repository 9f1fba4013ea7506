// Package train runs CNN training with activation compression injected
// as the paper's functional simulation does: between the forward and the
// backward pass every saved activation becomes its compressed-recovered
// version (or a BRC mask), so the approximate weight gradient of Eqn. 8 —
// and any resulting accuracy change or divergence — emerges naturally.
// The round trip is a real one: every lossy Table I method runs through
// the offload engine (internal/offload) over a clean in-process channel,
// its frames encoded by the method's frame codecs, which is also what
// ClassifierOffloaded runs over a faulty or networked channel. The
// baseline leaves the activations alone.
package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
	"jpegact/internal/tensor"
)

// Config parameterizes a training run.
type Config struct {
	Method          compress.Method
	Epochs          int
	BatchesPerEpoch int
	BatchSize       int
	LR              float64
	Momentum        float64
	WeightDecay     float64
	Seed            uint64
	// MeasureError also records the mean recovered-activation L2 error
	// per epoch (costs one clone per saved activation).
	MeasureError bool
}

// newOptimizer builds the one update rule every trainer uses: SGD with
// momentum and weight decay at a constant learning rate.
func (c Config) newOptimizer() *nn.SGD {
	return nn.NewSGD(c.LR, c.Momentum, c.WeightDecay)
}

func (c Config) withDefaults() Config {
	if c.Method == nil {
		c.Method = compress.Baseline{}
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.BatchesPerEpoch == 0 {
		c.BatchesPerEpoch = 8
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 1e-4
	}
	return c
}

// EpochStats records one epoch of training under compression.
type EpochStats struct {
	Epoch            int
	Loss             float64
	Score            float64 // validation accuracy (Classify) or PSNR (SuperRes)
	CompressionRatio float64 // weighted over all saved activations
	ActL2Error       float64 // mean recovered-activation error (if measured)
}

// FootprintEntry aggregates offload bytes for one activation kind.
type FootprintEntry struct {
	Kind            compress.Kind
	OriginalBytes   int
	CompressedBytes int
}

// Report summarizes a full training run.
type Report struct {
	ModelName  string
	MethodName string
	Epochs     []EpochStats
	BestScore  float64
	FinalRatio float64
	Diverged   bool
	// Footprint is the per-kind byte breakdown from the final epoch
	// (the Fig. 19 data).
	Footprint []FootprintEntry
	// WeightsDigest is the hex SHA-256 of the trained weights: every
	// parameter's float32 bits, little-endian, in Params() order (replica
	// 0's under data parallelism). Runs whose trajectories are
	// bit-identical — across activation policies' transports, replica
	// counts, injected faults — print the same digest.
	WeightsDigest string
}

// weightsDigest computes Report.WeightsDigest for net.
func weightsDigest(net nn.Layer) string {
	h := sha256.New()
	var buf []byte
	for _, p := range net.Params() {
		buf = buf[:0]
		for _, v := range p.W.Data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Classifier trains a classification model on the synthetic dataset and
// returns the per-epoch statistics: activation policy offload through
// cfg.Method's codecs over a clean channel (none for the baseline),
// gradient policy local.
func Classifier(m *models.Model, ds *data.Classification, cfg Config) Report {
	cfg = cfg.withDefaults()
	a := tensor.NewArena()
	rep, _, _ := trainLocal(m, cfg, cfg.Method, OffloadOptions{}, a, classifierValidation(m.Net, a, ds, cfg), classifierBatch(ds, cfg))
	return rep
}

// SuperResolution trains the VDSR model on synthetic pairs, scoring PSNR,
// under the same activation and gradient policies as Classifier.
func SuperResolution(m *models.Model, ds *data.SuperRes, cfg Config) Report {
	if cfg.LR == 0 {
		cfg.LR = 0.01 // VDSR's step; the classifiers default to 0.05
	}
	cfg = cfg.withDefaults()
	a := tensor.NewArena()
	valIn, valTgt := ds.Pair(cfg.BatchSize * 2)
	validate := func() (float64, *tensor.Tensor) {
		out := evaluate(m.Net, a, valIn, cfg.BatchSize)
		return data.PSNR(out, valTgt), out
	}
	rep, _, _ := trainLocal(m, cfg, cfg.Method, OffloadOptions{}, a, validate, func() (*tensor.Tensor, lossFunc) {
		in, tgt := ds.Pair(cfg.BatchSize)
		return in, func(out *tensor.Tensor) (float64, *tensor.Tensor) { return nn.MSELoss(out, tgt) }
	})
	return rep
}

func sortedFootprint(m map[compress.Kind]offload.Bytes) []FootprintEntry {
	var out []FootprintEntry
	for _, k := range []compress.Kind{compress.KindConv, compress.KindReLUToConv, compress.KindReLUToOther, compress.KindPoolDropout} {
		if b, ok := m[k]; ok {
			out = append(out, FootprintEntry{Kind: k, OriginalBytes: b.Orig, CompressedBytes: b.Comp})
		}
	}
	return out
}

// Run dispatches on the model's task.
func Run(m *models.Model, cls *data.Classification, sr *data.SuperRes, cfg Config) Report {
	if m.Task == models.SuperRes {
		return SuperResolution(m, sr, cfg)
	}
	return Classifier(m, cls, cfg)
}
