// Package jpegact is a Go reproduction of "JPEG-ACT: Accelerating Deep
// Learning via Transform-based Lossy Compression" (Evans, Liu, Aamodt —
// ISCA 2020): lossy activation-offload compression for CNN training built
// from SFPR fixed-point reduction, an 8×8 DCT (the float32 AAN transform
// in software; the modelled hardware's Q13 LLM), shift quantization with
// CNN-optimized quantization tables, and zero-value coding.
//
// This root package is the public API. It re-exports the building blocks
// and offers one-call entry points:
//
//   - compression methods: Baseline, CDMAPlus, GIST, SFPR, JPEGBase,
//     JPEGACT (Table I of the paper);
//   - CompressActivation / the Method interface for compressing NCHW
//     activation tensors by activation kind (Table II policy built in);
//   - TrainClassifier / TrainSuperRes to train the bundled mini networks
//     under any compression method;
//   - TrainClassifierOffloaded, the real host-memory offload path with a
//     framed CRC-checked channel, fault injection (NewFaultInjector) and
//     fail/retry/recompute corruption recovery;
//   - TrainClassifierDataParallel, K replica workers exchanging gradients
//     through the same transport;
//   - OptimizeDQT, the §IV quantization-table optimizer.
//
// The trainers print nothing. Each returns a TrainReport with one
// EpochStats per epoch, the offloaded and data-parallel ones also the
// transport's counters, and an EpochEnd option sees each epoch as it is
// recorded.
//
// The heavy lifting lives in internal/ packages; see DESIGN.md for the
// full system inventory.
package jpegact

import (
	"fmt"
	"io"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/dqtopt"
	"jpegact/internal/faults"
	"jpegact/internal/frame"
	"jpegact/internal/models"
	"jpegact/internal/offload"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/netstore"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
	"jpegact/internal/train"
)

// Tensor is a dense float32 NCHW activation tensor.
type Tensor = tensor.Tensor

// NewTensor allocates a zero tensor.
func NewTensor(n, c, h, w int) *Tensor { return tensor.New(n, c, h, w) }

// Kind classifies an activation for the Table II compression policy.
type Kind = compress.Kind

// Activation kinds.
const (
	KindConv        = compress.KindConv
	KindReLUToOther = compress.KindReLUToOther
)

// Method is an activation-compression scheme.
type Method = compress.Method

// Result is the outcome of compressing one activation.
type Result = compress.Result

// DQT is an 8×8 Discrete Quantization Table.
type DQT = quant.DQT

// Schedule is a per-epoch DQT selection (e.g. the piece-wise optL5H).
type Schedule = quant.Schedule

// DefaultS is the SFPR global scaling factor selected by the paper.
const DefaultS = sfpr.DefaultS

// Baseline returns the uncompressed (vDNN-style) method.
func Baseline() Method { return compress.Baseline{} }

// CDMAPlus returns the DMA-side ZVC method (lossless).
func CDMAPlus() Method { return compress.CDMAPlus{} }

// GIST returns the DPR+BRC+CSR method of Jain et al.
func GIST() Method { return compress.GIST{} }

// SFPR returns Scaled Fix-point Precision Reduction alone (4×).
func SFPR() Method { return compress.SFPROnly{} }

// JPEGBase returns JPEG-BASE with a stock image DQT at the given quality
// (e.g. 80 or 60).
func JPEGBase(quality int) Method {
	return compress.NewJPEGBase(quant.JPEGQuality(quality))
}

// JPEGACT returns the shipped JPEG-ACT configuration: the SH+ZVC back end
// with the piece-wise optL5H DQT schedule.
func JPEGACT() Method { return compress.NewJPEGAct(quant.OptL5H()) }

// JPEGACTWith returns JPEG-ACT with a custom DQT schedule.
func JPEGACTWith(s Schedule) Method { return compress.NewJPEGAct(s) }

// HardwareJPEGACT returns JPEG-ACT backed by the cycle-counted CDU
// datapath model (fixed-point DCT, collector/splitter packets) instead of
// the float functional pipeline — for verifying hardware-equivalent
// training behaviour and accounting CDU cycles.
func HardwareJPEGACT(s Schedule, nCDU int) Method {
	return compress.NewHardwareJPEGACT(s, nCDU)
}

// OptL and OptH return the optimized low/high-compression DQTs; FixedDQT
// builds a one-table schedule from either.
func OptL() DQT                { return quant.OptL() }
func OptH() DQT                { return quant.OptH() }
func FixedDQT(d DQT) Schedule  { return quant.Fixed(d) }
func JPEGQualityDQT(q int) DQT { return quant.JPEGQuality(q) }

// Methods returns the Table I method set in paper order.
func Methods() []Method { return compress.Standard() }

// CompressActivation compresses x as an activation of the given kind at
// the given training epoch through the method's frame codec, returning
// the lossy recovered tensor (or BRC mask) and the byte accounting.
func CompressActivation(m Method, x *Tensor, kind Kind, epoch int) Result {
	return codec.For(m, epoch).Compress(kind, x)
}

// Lossless reports whether m reconstructs every activation bit for bit.
func Lossless(m Method) bool { return compress.Lossless(m) }

// TrainConfig configures a training run (see internal/train.Config).
type TrainConfig = train.Config

// TrainReport summarizes a training run under compression.
type TrainReport = train.Report

// EpochStats is one epoch of a TrainReport, and what the trainers' epoch
// hooks (OffloadTrainOptions.EpochEnd, DataParallelOptions.EpochEnd) see
// as each epoch is recorded.
type EpochStats = train.EpochStats

// ModelScale sizes the bundled mini networks.
type ModelScale = models.Scale

// TrainClassifier trains a mini network by name ("VGG", "ResNet18",
// "ResNet50", "ResNet101", "WRN") on the synthetic classification set.
func TrainClassifier(model string, sc ModelScale, cfg TrainConfig, seed uint64) TrainReport {
	m, ds := buildClassifier(model, sc, seed)
	return train.Classifier(m, ds, cfg)
}

func buildClassifier(model string, sc ModelScale, seed uint64) (*models.Model, *data.Classification) {
	m, ok := models.ByName(model, sc, 4, tensor.NewRNG(seed))
	if !ok || m.Task != models.Classify {
		panic("jpegact: unknown model " + model)
	}
	ds := data.NewClassification(data.ClassificationConfig{
		Classes: 4, Channels: 3, H: m.H, W: m.W, Noise: 0.4, Seed: seed,
	})
	return m, ds
}

// TrainSuperRes trains the mini VDSR on synthetic super-resolution pairs.
func TrainSuperRes(sc ModelScale, cfg TrainConfig, seed uint64) TrainReport {
	m := models.VDSR(sc, tensor.NewRNG(seed))
	ds := data.NewSuperRes(m.H, m.W, seed)
	return train.SuperResolution(m, ds, cfg)
}

// --- Fault-tolerant offload channel -----------------------------------
//
// The offload store ships activations across the GPU↔host channel in a
// framed, CRC32C-checked container and recovers from corruption per a
// configurable policy; see "Fault model & recovery" in DESIGN.md.

// OffloadStats are the store's offload/restore/corruption counters.
type OffloadStats = offload.Stats

// RecoveryPolicy selects the store's response to a corrupted frame.
type RecoveryPolicy = offload.RecoveryPolicy

// Recovery policies: fail with a typed error naming the corrupted ref,
// re-read the channel, or replay the whole step from the intact batch
// input (gradient-checkpointing style).
const (
	RecoverFail      = offload.PolicyFail
	RecoverRetry     = offload.PolicyRetry
	RecoverRecompute = offload.PolicyRecompute
)

// ErrFrameChecksum is the typed error (wrapped) of a frame whose CRC32C
// does not match its bytes, from an offload restore or ReadCompressed;
// match with errors.Is.
var ErrFrameChecksum = frame.ErrChecksum

// StoreDialer opens one connection to a networked activation store; it
// is the fault-injection seam of the network transport.
type StoreDialer = transport.Dialer

// DialActivationStore builds a dialer for "unix:/path" or
// "tcp:host:port" (a bare host:port defaults to TCP).
func DialActivationStore(addr string) (StoreDialer, error) {
	return transport.DialAddr(addr)
}

// NewStoreClient builds a wire-protocol transport backend over dial.
// Connection faults and verified bytes are counted in c; nil gets a
// private block.
func NewStoreClient(dial StoreDialer, c *transport.Counters) *transport.NetClient {
	return transport.NewNetClient(dial, c)
}

// ActivationStoreServer is the sharded networked activation store
// (internal/offload/netstore); run it standalone with cmd/actstore.
type ActivationStoreServer = netstore.Server

// ActivationStoreConfig sizes an ActivationStoreServer.
type ActivationStoreConfig = netstore.Config

// NewActivationStore builds a server; Listen/Serve it on a unix socket
// or TCP address and point clients at it with NewStoreClient or the
// OffloadTrainOptions.StoreAddr field.
func NewActivationStore(cfg ActivationStoreConfig) *ActivationStoreServer {
	return netstore.New(cfg)
}

// FaultConfig configures a deterministic channel fault injector.
type FaultConfig = faults.Config

// FaultInjector corrupts offload transfers with seeded bit flips,
// truncations and drops; it is an OffloadTrainOptions.Channel.
type FaultInjector = faults.Injector

// NewFaultInjector builds a deterministic injector from cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faults.New(cfg) }

// OffloadTrainOptions configures TrainClassifierOffloaded: the DQT, the
// (possibly fault-injected) channel or the networked store, the recovery
// policy, the wire client's ClientHook and the EpochEnd hook. The run
// ignores TrainConfig.Method.
type OffloadTrainOptions = train.OffloadOptions

// TrainClassifierOffloaded trains a mini network by name with real
// host-memory offload: every saved activation crosses oc.Channel as a
// framed byte buffer between forward and backward, and corrupted frames
// are recovered per oc.Policy. The returned OffloadStats hold the fault
// counters; a non-nil error means a corruption survived the policy.
func TrainClassifierOffloaded(model string, sc ModelScale, cfg TrainConfig, oc OffloadTrainOptions, seed uint64) (TrainReport, OffloadStats, error) {
	m, ds := buildClassifier(model, sc, seed)
	return train.ClassifierOffloaded(m, ds, cfg, oc)
}

// DataParallelOptions configures TrainClassifierDataParallel: replica
// count, microbatches per step, (optionally) the networked store carrying
// the exchange, and the same ClientHook and EpochEnd hooks as
// OffloadTrainOptions. The run ignores TrainConfig.Method and
// MeasureError.
type DataParallelOptions = train.DPOptions

// TransportSnapshot is a point-in-time copy of the transport counters,
// including the gradient-exchange rows (grad_puts/grad_gets/bytes_grad).
type TransportSnapshot = transport.Snapshot

// TrainClassifierDataParallel trains a mini network by name with K
// replica workers exchanging per-microbatch weight gradients through the
// activation-store transport (in-process, or the shared networked store
// when dp.StoreDial is set). The step semantics are replica-invariant:
// for a fixed dp.Microbatches the final weights are bit-identical for
// any dp.Replicas, including over the wire and under connection chaos.
func TrainClassifierDataParallel(model string, sc ModelScale, cfg TrainConfig, dp DataParallelOptions, seed uint64) (TrainReport, TransportSnapshot, error) {
	// One dataset feeds the central microbatch draw; every replica gets
	// its own identically-seeded model instance.
	_, ds := buildClassifier(model, sc, seed)
	newModel := func() *models.Model {
		m, _ := buildClassifier(model, sc, seed)
		return m
	}
	return train.ClassifierDataParallel(newModel, ds, cfg, dp)
}

// DQTOptimizerConfig configures OptimizeDQT (see internal/dqtopt.Config).
type DQTOptimizerConfig = dqtopt.Config

// OptimizeDQT runs the §IV optimization from seed on sample activations.
func OptimizeDQT(seed DQT, samples []*Tensor, cfg DQTOptimizerConfig) (DQT, []dqtopt.Point) {
	r := dqtopt.Optimize(seed, samples, cfg)
	return r.DQT, r.Trace
}

// WriteCompressed compresses x as a dense conv activation with the
// given DQT — the offload store's own codec — and writes it as one
// CRC-protected frame, returning the bytes written; read it back with
// ReadCompressed. Unlike CompressActivation, only the compressed bytes
// cross the writer.
func WriteCompressed(w io.Writer, x *Tensor, d DQT) (int, error) {
	enc, err := codec.New(d).Encode(compress.KindConv, x)
	if err != nil {
		return 0, err
	}
	return w.Write(frame.EncodeFrame(enc.Frame))
}

// ReadCompressed reconstructs the tensor from a frame WriteCompressed
// wrote. Frames, like the store, do not carry the quantization table:
// pass the DQT the frame was written with. A frame damaged under its
// checksum fails with ErrFrameChecksum.
func ReadCompressed(r io.Reader, d DQT) (*Tensor, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	f, err := frame.DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	x, err := codec.New(d).Decode(f)
	if err == nil && x == nil {
		err = fmt.Errorf("jpegact: a %s frame holds no tensor", f.Codec)
	}
	return x, err
}
