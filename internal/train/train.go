// Package train runs CNN training with activation compression injected
// exactly as the paper's functional simulation does: after each forward
// pass, every saved activation is replaced by its compressed-recovered
// version (or by a BRC mask) before the backward pass reads it, so the
// approximate weight gradient of Eqn. 8 — and any resulting accuracy
// change or divergence — emerges naturally.
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

// compressRefs applies the method to every unique saved activation and
// reports the byte totals, the recovered-activation error (if measured)
// and the per-kind footprint.
func compressRefs(refs []*nn.ActRef, m compress.Method, epoch int, measure bool) stepResult {
	seen := map[*nn.ActRef]bool{}
	res := stepResult{foot: map[compress.Kind]*FootprintEntry{}}
	for _, ref := range refs {
		if seen[ref] || ref.T == nil {
			continue
		}
		seen[ref] = true
		var before *tensor.Tensor
		if measure {
			before = ref.T.Clone()
		}
		r := m.Compress(ref.T, ref.Kind, epoch)
		ref.OriginalBytes = r.OriginalBytes
		ref.CompressedBytes = r.CompressedBytes
		res.orig += r.OriginalBytes
		res.comp += r.CompressedBytes
		fe := res.foot[ref.Kind]
		if fe == nil {
			fe = &FootprintEntry{Kind: ref.Kind}
			res.foot[ref.Kind] = fe
		}
		fe.OriginalBytes += r.OriginalBytes
		fe.CompressedBytes += r.CompressedBytes
		if r.Mask != nil {
			ref.Mask = r.Mask
			ref.T = nil
		} else {
			if measure && r.Recovered != nil {
				res.errSum += tensor.L2Error(before, r.Recovered)
				res.errN++
			}
			ref.T = r.Recovered
		}
	}
	return res
}

// Classifier trains a classification model on the synthetic dataset and
// returns the per-epoch statistics: activation policy round-trip through
// cfg.Method, gradient policy local.
func Classifier(m *models.Model, ds *data.Classification, cfg Config) Report {
	cfg = cfg.withDefaults()
	return roundTrip(m, cfg, classifierValidation(m.Net, ds, cfg), classifierBatch(ds, cfg))
}

// SuperResolution trains the VDSR model on synthetic pairs, scoring PSNR.
func SuperResolution(m *models.Model, ds *data.SuperRes, cfg Config) Report {
	if cfg.LR == 0 {
		cfg.LR = 0.01 // VDSR's step; the classifiers default to 0.05
	}
	cfg = cfg.withDefaults()
	valIn, valTgt := ds.Pair(cfg.BatchSize * 2)
	validate := func() (float64, *tensor.Tensor) {
		out := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: valIn}, false)
		return data.PSNR(out.T, valTgt), out.T
	}
	return roundTrip(m, cfg, validate, func() (*tensor.Tensor, lossFunc) {
		in, tgt := ds.Pair(cfg.BatchSize)
		return in, func(out *tensor.Tensor) (float64, *tensor.Tensor) { return nn.MSELoss(out, tgt) }
	})
}

// roundTrip runs the paper's functional simulation: every saved
// activation is replaced by its compressed-recovered form between
// forward and backward. cfg already carries its defaults.
func roundTrip(m *models.Model, cfg Config, validate func() (float64, *tensor.Tensor), batch func() (*tensor.Tensor, lossFunc)) Report {
	rep := Report{ModelName: m.Name, MethodName: cfg.Method.Name()}
	opt := cfg.newOptimizer()
	p := &pass{net: m.Net, method: cfg.Method, measure: cfg.MeasureError}
	l := loop{cfg: cfg, step: localStep(p, opt, batch), validate: validate}
	_ = l.run(&rep) // only the offload and all-reduce policies have an error path
	rep.WeightsDigest = weightsDigest(m.Net)
	return rep
}

func sortedFootprint(m map[compress.Kind]*FootprintEntry) []FootprintEntry {
	var out []FootprintEntry
	for _, k := range []compress.Kind{compress.KindConv, compress.KindReLUToConv, compress.KindReLUToOther, compress.KindPoolDropout} {
		if fe, ok := m[k]; ok {
			out = append(out, *fe)
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
