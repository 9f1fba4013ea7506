// Package jpegact is a Go reproduction of "JPEG-ACT: Accelerating Deep
// Learning via Transform-based Lossy Compression" (Evans, Liu, Aamodt —
// ISCA 2020): lossy activation-offload compression for CNN training built
// from SFPR fixed-point reduction, an 8×8 LLM DCT, shift quantization
// with CNN-optimized quantization tables, and zero-value coding.
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
//   - OptimizeDQT, the §IV quantization-table optimizer;
//   - SimulateOffload and the gpusim schemes for performance studies;
//   - RunExperiment to regenerate any table or figure of the paper.
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
	"jpegact/internal/experiments"
	"jpegact/internal/faults"
	"jpegact/internal/frame"
	"jpegact/internal/gpusim"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/netstore"
	"jpegact/internal/offload/transport"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
	"jpegact/internal/train"
)

// SetParallelWorkers sets the worker count used by every parallel hot
// path (GEMM, im2col, the block compression pipeline, ZVC coding) and
// returns the previous value. n <= 0 restores the default: the
// JPEGACT_WORKERS environment variable, else GOMAXPROCS. Compressed
// output and training results are bit-identical at any worker count.
func SetParallelWorkers(n int) int { return parallel.SetWorkers(n) }

// ParallelWorkers returns the current parallel worker count.
func ParallelWorkers() int { return parallel.Workers() }

// Tensor is a dense float32 NCHW activation tensor.
type Tensor = tensor.Tensor

// Shape is a tensor's NCHW dimensions.
type Shape = tensor.Shape

// NewTensor allocates a zero tensor.
func NewTensor(n, c, h, w int) *Tensor { return tensor.New(n, c, h, w) }

// FromSlice wraps a float32 slice as an NCHW tensor (no copy).
func FromSlice(vals []float32, n, c, h, w int) *Tensor {
	return tensor.FromSlice(vals, n, c, h, w)
}

// Kind classifies an activation for the Table II compression policy.
type Kind = compress.Kind

// Activation kinds.
const (
	KindConv        = compress.KindConv
	KindReLUToOther = compress.KindReLUToOther
	KindReLUToConv  = compress.KindReLUToConv
	KindPoolDropout = compress.KindPoolDropout
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

// GIST16 returns the 16-bit DPR GIST variant (half the compression,
// much lower quantization error).
func GIST16() Method { return compress.GIST16() }

// BFP returns the block-floating-point baseline with the given mantissa
// width (0 = 10 bits).
func BFP(manBits uint) Method { return compress.BFPMethod{ManBits: manBits} }

// HardwareJPEGACT returns JPEG-ACT backed by the cycle-counted CDU
// datapath model (fixed-point DCT, collector/splitter packets) instead of
// the float functional pipeline — for verifying hardware-equivalent
// training behaviour and accounting CDU cycles.
func HardwareJPEGACT(s Schedule, nCDU int) Method {
	return compress.NewHardwareJPEGACT(s, nCDU)
}

// OptL and OptH return the optimized low/high-compression DQTs; FixedDQT
// and OptL5H build schedules from them.
func OptL() DQT                { return quant.OptL() }
func OptH() DQT                { return quant.OptH() }
func FixedDQT(d DQT) Schedule  { return quant.Fixed(d) }
func OptL5H() Schedule         { return quant.OptL5H() }
func JPEGQualityDQT(q int) DQT { return quant.JPEGQuality(q) }

// Methods returns the Table I method set in paper order.
func Methods() []Method { return compress.Standard() }

// CompressActivation compresses x as an activation of the given kind at
// the given training epoch, returning the lossy recovered tensor (or BRC
// mask) and the byte accounting.
func CompressActivation(m Method, x *Tensor, kind Kind, epoch int) Result {
	return m.Compress(x, kind, epoch)
}

// TrainConfig configures a training run (see internal/train.Config).
type TrainConfig = train.Config

// TrainReport summarizes a training run under compression.
type TrainReport = train.Report

// ModelScale sizes the bundled mini networks.
type ModelScale = models.Scale

// TrainClassifier trains a mini network by name ("VGG", "ResNet18",
// "ResNet50", "ResNet101", "WRN", "MobileNet") on the synthetic
// classification set.
func TrainClassifier(model string, sc ModelScale, cfg TrainConfig, seed uint64) TrainReport {
	m, ds := buildClassifier(model, sc, seed)
	return train.Classifier(m, ds, cfg)
}

func buildClassifier(model string, sc ModelScale, seed uint64) (*models.Model, *data.Classification) {
	rng := tensor.NewRNG(seed)
	var m *models.Model
	switch model {
	case "VGG":
		m = models.VGG(sc, 4, rng)
	case "ResNet18":
		m = models.ResNet18(sc, 4, rng)
	case "ResNet50":
		m = models.ResNet50(sc, 4, rng)
	case "ResNet101":
		m = models.ResNet101(sc, 4, rng)
	case "WRN":
		m = models.WRN(sc, 4, rng)
	case "MobileNet":
		m = models.MobileNet(sc, 4, rng)
	default:
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

// OffloadStore is the host-memory activation store (internal/offload).
type OffloadStore = offload.Store

// NewOffloadStore builds a store using the given DQT for its JPEG-ACT
// compression pipeline.
func NewOffloadStore(dqt DQT) *OffloadStore { return offload.NewStore(dqt) }

// OffloadStats are the store's offload/restore/corruption counters.
type OffloadStats = offload.Stats

// OffloadChannel is the byte path activations cross between GPU and
// host. Any {Send, Recv} pair satisfies it; a FaultInjector is one.
type OffloadChannel = offload.Channel

// RecoveryPolicy selects the store's response to a corrupted frame.
type RecoveryPolicy = offload.RecoveryPolicy

// Recovery policies: fail with a typed error naming the corrupted ref,
// re-read the channel with backoff, or replay the forward pass from the
// intact batch input (gradient-checkpointing style).
const (
	RecoverFail      = offload.PolicyFail
	RecoverRetry     = offload.PolicyRetry
	RecoverRecompute = offload.PolicyRecompute
)

// Typed frame-validation errors surfaced (wrapped) by OffloadStore
// restores; match with errors.Is.
var (
	ErrFrameChecksum  = frame.ErrChecksum
	ErrFrameTruncated = frame.ErrTruncated
	ErrFrameBadMagic  = frame.ErrBadMagic
	ErrFrameVersion   = frame.ErrVersion
)

// ErrOffloadDropped is the typed error for a transfer that yielded no
// bytes at all (a lost DMA), distinct from truncation or corruption;
// match with errors.Is.
var ErrOffloadDropped = offload.ErrDropped

// ErrStoreUnavailable is the typed verdict for a wire operation whose
// whole reconnect+resend schedule failed at the connection level — the
// activation store is dead or unreachable. The store's circuit breaker
// counts exactly these before degrading to local offload; match with
// errors.Is.
var ErrStoreUnavailable = offload.ErrStoreUnavailable

// StoreBreakerConfig tunes the circuit breaker guarding a networked
// activation store (see OffloadTrainOptions.Breaker): consecutive
// whole-op wire failures trip it and offloads degrade to an in-process
// fallback holding the identical encoded bytes, so training continues
// bit-identically through a dead store. The zero value is an enabled
// breaker with default thresholds.
type StoreBreakerConfig = offload.BreakerConfig

// OffloadTransport is the pluggable byte-path backend interface the
// store is written against: the in-process channel backend, or a wire
// client talking to a shared activation-store server.
type OffloadTransport = transport.Transport

// StoreDialer opens one connection to a networked activation store; it
// is the fault-injection seam of the network transport.
type StoreDialer = transport.Dialer

// DialActivationStore builds a dialer for "unix:/path" or
// "tcp:host:port" (a bare host:port defaults to TCP).
func DialActivationStore(addr string) (StoreDialer, error) {
	return transport.DialAddr(addr)
}

// NewStoreClient builds a wire-protocol transport backend over dial.
// Assign it to an OffloadStore's Transport field, passing the store's
// Counters() so network faults land in the same OffloadStats.
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

// OffloadEngine is the async scheduler layer over an OffloadStore: it
// pipelines compression and channel transfers against compute, commits
// frames in submission order (deterministic fault patterns) and
// prefetches restores in reverse-offload order.
type OffloadEngine = offload.Engine

// OffloadEngineConfig configures the scheduler (async on/off, encode
// workers, restore lookahead, in-flight byte budget).
type OffloadEngineConfig = offload.EngineConfig

// OffloadEngineStats counts scheduler-level events (prefetch hits/waits,
// in-flight high-water mark).
type OffloadEngineStats = offload.EngineStats

// NewOffloadEngine wraps a store in a scheduler.
func NewOffloadEngine(s *OffloadStore, cfg OffloadEngineConfig) *OffloadEngine {
	return offload.NewEngine(s, cfg)
}

// ActivationHooks connect a network to an offload scheduler: OnSave
// fires when a saved activation becomes emission-safe during forward,
// OnNeed just before backward reads it.
type ActivationHooks = nn.Hooks

// SetActivationHooks installs hooks on every container of a bundled
// model's network (nil detaches).
func SetActivationHooks(l nn.Layer, h *ActivationHooks) { nn.SetHooks(l, h) }

// FaultConfig configures a deterministic channel fault injector.
type FaultConfig = faults.Config

// FaultInjector corrupts offload transfers with seeded bit flips,
// truncations and drops; it satisfies OffloadChannel.
type FaultInjector = faults.Injector

// NewFaultInjector builds a deterministic injector from cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faults.New(cfg) }

// OffloadTrainOptions configures TrainClassifierOffloaded: the DQT, the
// (possibly fault-injected) channel, and the recovery policy.
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
// count, microbatches per step, and (optionally) the networked store
// carrying the exchange.
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

// PlatformConfig is the simulated GPU platform.
type PlatformConfig = gpusim.Config

// TitanV returns the paper's platform with n CDUs.
func TitanV(nCDU int) PlatformConfig { return gpusim.TitanV(nCDU) }

// OffloadScheme is a performance-model offload method.
type OffloadScheme = gpusim.Scheme

// Offload schemes for SimulateOffload.
func SchemeVDNN() OffloadScheme { return gpusim.VDNN() }
func SchemeCDMA() OffloadScheme { return gpusim.CDMAPlus() }
func SchemeGIST() OffloadScheme { return gpusim.GIST() }
func SchemeSFPR() OffloadScheme { return gpusim.SFPROnly() }
func SchemeJPEGACT() OffloadScheme {
	return gpusim.JPEGAct(gpusim.JPEGActDefaultRatios())
}

// SimulateOffload returns the speedup of the scheme over vDNN on the
// named CNR microbenchmark (see gpusim.Workloads for names).
func SimulateOffload(workload string, s OffloadScheme, cfg PlatformConfig) (float64, bool) {
	for _, w := range gpusim.Workloads() {
		if w.Name == workload {
			return gpusim.Relative(w, s, cfg), true
		}
	}
	return 0, false
}

// WorkloadNames lists the available microbenchmarks.
func WorkloadNames() []string {
	var out []string
	for _, w := range gpusim.Workloads() {
		out = append(out, w.Name)
	}
	return out
}

// ExperimentOptions controls experiment scale.
type ExperimentOptions = experiments.Options

// ExperimentResult is one regenerated table/figure.
type ExperimentResult = experiments.Result

// RunExperiment regenerates one of the paper's tables or figures by id
// (fig1b, fig2, fig6, fig10, fig16, fig17, fig18, fig19, fig20, fig21,
// table1..table5).
func RunExperiment(id string, o ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, o)
}

// ExperimentIDs lists every reproducible table and figure.
func ExperimentIDs() []string { return experiments.IDs() }

// WriteSyntheticCIFAR writes n synthetic samples in the CIFAR-10 binary
// record format (label byte + 3072 channel-major pixels), a drop-in
// data_batch file for offline pipelines.
func WriteSyntheticCIFAR(w io.Writer, n, classes int, seed uint64) error {
	return data.WriteSyntheticCIFAR(w, n, classes, seed)
}

// LoadCIFAR reads CIFAR-10 binary records (real or synthetic) into an
// NCHW tensor and label slice.
func LoadCIFAR(r io.Reader) (*Tensor, []int, error) { return data.LoadCIFAR(r) }

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
// pass the DQT the frame was written with. A damaged frame fails with
// one of the typed ErrFrame* errors.
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
