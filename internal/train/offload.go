package train

// Offloaded training: every saved activation really crosses the GPU↔host
// channel as a framed byte buffer between forward and backward — a clean
// in-process one for Classifier and SuperResolution, which is the
// paper's functional simulation, and a possibly faulty or networked one
// for ClassifierOffloaded. The trainers differ only in options and in
// the method whose codecs frame the activations. Corrupted frames are
// detected by CRC and recovered per the configured policy; under
// PolicyRecompute a step whose restore failed is aborted and replayed
// from the batch input — the nearest activation guaranteed intact —
// exactly as gradient checkpointing would, after rewinding
// BatchNorm/Dropout side effects and zeroing the gradients so the replay
// is bit-identical (localStep).
//
// The offload engine overlaps the traffic with compute: save hooks stream
// each activation to the encode pool the moment the forward pass is done
// with it, frames are committed to the channel in submission order, and
// the backward pass consumes restores staged by a reverse-order
// prefetcher. From the second step on, the last frames forward submits —
// the first ones backward reads — stay on the device. The trajectory
// depends on the method's codecs alone, never on the channel or the
// transport, bit for bit.

import (
	"time"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/offload"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// OffloadOptions configures the offloaded (host-memory) training path.
// ClassifierOffloaded ignores Config.Method: the store runs JPEG-ACT at
// the DQT below.
type OffloadOptions struct {
	// DQT is the quantization table for the store's JPEG-ACT pipeline
	// (the zero table = quant.OptL()).
	DQT quant.DQT
	// Channel is the GPU↔host byte path (nil = clean). Pass a
	// faults.Injector to exercise the recovery machinery.
	Channel transport.Channel
	// Policy selects the corruption response (fail / retry / recompute).
	Policy offload.RecoveryPolicy
	// MaxRetries bounds the channel re-reads, which follow one another
	// without a delay.
	MaxRetries int
	// Async selects nothing: the engine always runs the pipelined path.
	// It is kept only so bench/ compiles against it.
	Async bool
	// StoreAddr, when non-empty, sends the offload traffic to a shared
	// networked activation store (cmd/actstore) at this address —
	// "unix:/path/store.sock" or "tcp:host:port" — instead of the
	// in-process channel. The trajectory is bit-identical to the
	// in-process path: compression is deterministic and restores are
	// content-addressed, so only the transport differs.
	StoreAddr string
	// StoreDial overrides the store connection factory (implies
	// networked mode even with an empty StoreAddr). This is the fault
	// seam for network-transport tests: wrap the returned net.Conn to
	// drop connections mid-frame and the reconnect+resend schedule must
	// absorb it.
	StoreDial transport.Dialer
	// StoreTimeout bounds the total wall time one wire operation may
	// spend across its whole reconnect+resend schedule; on expiry the
	// op fails with the typed offload.ErrStoreUnavailable, which feeds
	// the circuit breaker. Each individual attempt is bounded by a
	// quarter of the budget (at least 50ms) so one stalled connection
	// cannot eat it all. 0 = unbounded (the pre-deadline behaviour).
	StoreTimeout time.Duration
	// NoDegrade turns the store's circuit breaker off: wire failures
	// surface instead of degrading (the store entry keeping the frame's
	// bytes). Only meaningful in networked mode.
	NoDegrade bool
	// ClientHook, when set, receives the built wire client before the
	// first operation — the seam chaos tests use to install op-count
	// triggers (lose keys on the Nth PUT) via the Latency hook.
	ClientHook func(*transport.NetClient)
	// EpochEnd, when set, sees each epoch as the report records it. It
	// runs between steps, when the store is empty (validation offloads
	// nothing): the deterministic point where a chaos harness kills or
	// restarts the server.
	EpochEnd func(EpochStats)
}

// newStoreClient builds the wire client both trainers use, pipelined at
// the transport's default window. It shares the caller's counter block,
// so network faults and verified bytes land in the stats the caller
// reads; hook (optional) sees the client before its first operation.
func newStoreClient(dial transport.Dialer, counters *transport.Counters, timeout time.Duration, hook func(*transport.NetClient)) *transport.NetClient {
	c := transport.NewNetClient(dial, counters)
	c.OpTimeout = transport.AttemptTimeout(timeout)
	if hook != nil {
		hook(c)
	}
	return c
}

// ClassifierOffloaded trains a classification model with real host-memory
// offload through a fault-prone channel: activation policy offload,
// gradient policy local. The returned Stats hold the store's
// corruption/recovery counters; a non-nil error means a corruption
// survived the recovery policy (the Report covers the epochs completed
// up to that point).
func ClassifierOffloaded(m *models.Model, ds *data.Classification, cfg Config, oc OffloadOptions) (Report, offload.Stats, error) {
	cfg = cfg.withDefaults()
	if oc.DQT == (quant.DQT{}) {
		// A zero table would quantize every coefficient by 2⁰.
		oc.DQT = quant.OptL()
	}
	method := compress.NewJPEGAct(quant.Fixed(oc.DQT))
	method.MethodName = "JPEG-ACT/offload(" + oc.Policy.String() + ")"
	a := tensor.NewArena()
	return trainLocal(m, cfg, method, oc, a, classifierValidation(m.Net, a, ds, cfg), classifierBatch(ds, cfg))
}

// trainLocal is every single-worker trainer (gradient policy local). The
// baseline runs activation policy none; any other method offloads through
// an engine over oc's store, its codec following the method's DQT
// schedule: it is set at each epoch boundary, between steps, when the
// store is empty. a serves the steps and validate.
func trainLocal(m *models.Model, cfg Config, method compress.Method, oc OffloadOptions, a *tensor.Arena, validate func() (float64, *tensor.Tensor), batch func() (*tensor.Tensor, lossFunc)) (Report, offload.Stats, error) {
	rep := Report{ModelName: m.Name, MethodName: method.Name()}
	p := &pass{net: m.Net, arena: a}
	l := loop{
		cfg:  cfg,
		step: localStep(p, cfg.newOptimizer(), batch),
		// Between steps the store is drained (every restore deletes its
		// entry), so the epoch hook is the safe, reproducible point for a
		// harness to kill or restart the server.
		epochEnd: oc.EpochEnd,
		validate: validate,
	}
	counters := new(transport.Counters) // the baseline moves no bytes
	if _, none := method.(compress.Baseline); !none {
		store, err := newStore(oc)
		if err != nil {
			return rep, offload.Stats{}, err
		}
		counters = store.Counters()
		defer store.Close()
		if store.Transport != nil {
			rep.MethodName += "+netstore"
		}
		p.eng = offload.NewEngine(store, offload.EngineConfig{})
		defer p.eng.Close()
		if cfg.MeasureError {
			p.probe = errProbe{}
		}
		step := l.step
		l.step = func(epoch, b int) (stepResult, error) {
			if b == 0 {
				store.Codec = codec.For(method, epoch)
			}
			return step(epoch, b)
		}
	}
	return l.finish(rep, m.Net, counters, a)
}

// newStore builds the activation store oc describes: the in-process
// channel (nil = clean) or a networked store, and the recovery policy.
func newStore(oc OffloadOptions) (*offload.Store, error) {
	store := offload.NewStore(quant.OptL())
	store.Channel = oc.Channel
	store.Recovery = offload.Recovery{
		Policy:     oc.Policy,
		MaxRetries: oc.MaxRetries,
		Deadline:   max(oc.StoreTimeout, 0),
	}
	if oc.StoreAddr != "" || oc.StoreDial != nil {
		dial := oc.StoreDial
		if dial == nil {
			d, err := transport.DialAddr(oc.StoreAddr)
			if err != nil {
				return nil, err
			}
			dial = d
		}
		store.Transport = newStoreClient(dial, store.Counters(), oc.StoreTimeout, oc.ClientHook)
		store.NoDegrade = oc.NoDegrade
	}
	return store, nil
}
