package train

// Fault-tolerant offloaded training: instead of the functional
// compress-and-swap simulation of Classifier, every saved activation
// really crosses the (possibly faulty) GPU↔host channel as a framed
// byte buffer between forward and backward. Corrupted frames are
// detected by CRC and recovered per the configured policy; under
// PolicyRecompute the whole step's activations are re-materialized by
// replaying the forward pass from the batch input — the nearest
// activation guaranteed intact — exactly as gradient checkpointing
// would, after rewinding BatchNorm/Dropout side effects so the replay
// is bit-identical.
//
// With Async set, the offload engine overlaps the traffic with compute:
// save hooks stream each activation to the encode pool the moment the
// forward pass is done with it, frames are committed to the channel in
// submission order (so fault patterns match the sync path), and the
// backward pass consumes restores staged by a reverse-order prefetcher.
// Sync mode is the degenerate case of the same engine; both paths
// produce bit-identical training trajectories.

import (
	"fmt"
	"time"

	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/offload"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
)

// OffloadOptions configures the offloaded (host-memory) training path.
// ClassifierOffloaded ignores Config.Method and Config.MeasureError: the
// store runs its own JPEG-ACT codec (DQT below), not a compress.Method.
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
	// Async enables the pipelined engine: activations stream to the
	// host as the forward pass produces them and restores are
	// prefetched during backward (see engineConfig). The trajectory is
	// bit-identical to sync mode.
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
	// StoreKeyBase namespaces this trainer's keys on a shared store
	// (e.g. clientID<<32); processes with disjoint bases cannot collide.
	StoreKeyBase uint64
	// StoreTimeout bounds the total wall time one wire operation may
	// spend across its whole reconnect+resend schedule; on expiry the
	// op fails with the typed offload.ErrStoreUnavailable, which feeds
	// the circuit breaker. Each individual attempt is bounded by a
	// quarter of the budget (at least 50ms) so one stalled connection
	// cannot eat it all. 0 = unbounded (the pre-deadline behaviour).
	StoreTimeout time.Duration
	// NoDegrade turns the store's circuit breaker off: wire failures
	// surface instead of degrading to the local fallback. Only
	// meaningful in networked mode.
	NoDegrade bool
	// StoreClient, when set, receives the built wire client before the
	// first operation — the seam chaos tests use to install op-count
	// triggers (kill a shard on the Nth PUT) via the Latency hook.
	StoreClient func(*transport.NetClient)
	// EpochEnd, when set, runs after each epoch's batches (before
	// validation) — the deterministic point where a chaos harness kills
	// or restarts the server between steps, when the store is empty.
	EpochEnd func(epoch int)
	// FreqDomain enables the frequency-domain restore path: saved
	// activations whose every consumer can read quantized DCT
	// coefficients directly (nn.CoefficientPlan) are restored as
	// coefficient planes, skipping the inverse transform. Layers outside
	// the plan restore spatially, unchanged; gradients differ from the
	// spatial path only within the documented tolerance (DESIGN.md
	// "Frequency-domain restore").
	FreqDomain bool
	// Verbose prints per-epoch fault counters from the training loop.
	Verbose bool
}

// engineConfig maps the options onto the scheduler layer. The restore
// lookahead is 4: the staged objects are verified compressed frames, so
// a window a little deeper than a residual block's burst of refs costs
// almost nothing and keeps the channel busy through the bursts. The
// encode workers' in-flight bytes are left unbounded.
func (oc OffloadOptions) engineConfig() offload.EngineConfig {
	return offload.EngineConfig{Async: oc.Async, Prefetch: 4}
}

// storeOpTimeout is the per-attempt bound inside a wire operation's
// total budget: a quarter of it, at least 50ms, so one stalled
// connection cannot eat it all (0 = unbounded, as the budget).
func storeOpTimeout(total time.Duration) time.Duration {
	if total <= 0 {
		return 0
	}
	return max(total/4, 50*time.Millisecond)
}

// newStoreClient builds the wire client both trainers use, pipelined at
// the transport's default window. It shares the caller's counter block,
// so network faults and verified bytes land in the stats the caller
// reads; hook (optional) sees the client before its first operation.
func newStoreClient(dial transport.Dialer, counters *transport.Counters, timeout time.Duration, hook func(*transport.NetClient)) *transport.NetClient {
	c := transport.NewNetClient(dial, counters)
	c.OpTimeout = storeOpTimeout(timeout)
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
	rep := Report{ModelName: m.Name, MethodName: "JPEG-ACT/offload(" + oc.Policy.String() + ")"}
	if oc.Async {
		rep.MethodName = "JPEG-ACT/offload-async(" + oc.Policy.String() + ")"
	}
	opt := cfg.newOptimizer()

	store := offload.NewStore(oc.DQT)
	store.Channel = oc.Channel
	store.Recovery = offload.Recovery{
		Policy:     oc.Policy,
		MaxRetries: oc.MaxRetries,
		Deadline:   max(oc.StoreTimeout, 0),
		OpTimeout:  storeOpTimeout(oc.StoreTimeout),
	}
	if oc.StoreAddr != "" || oc.StoreDial != nil {
		dial := oc.StoreDial
		if dial == nil {
			d, err := transport.DialAddr(oc.StoreAddr)
			if err != nil {
				return rep, offload.Stats{}, err
			}
			dial = d
		}
		store.Transport = newStoreClient(dial, store.Counters(), oc.StoreTimeout, oc.StoreClient)
		store.KeyBase = oc.StoreKeyBase
		store.NoDegrade = oc.NoDegrade
		rep.MethodName += "+netstore"
	}
	defer store.Close()
	eng := offload.NewEngine(store, oc.engineConfig())
	defer eng.Close()

	p := &pass{net: m.Net, eng: eng, freq: oc.FreqDomain}
	l := loop{
		cfg:  cfg,
		step: localStep(p, opt, classifierBatch(ds, cfg)),
		// Between steps the store is drained (every restore deletes its
		// entry), so the epoch hook is the safe, reproducible point for a
		// harness to kill or restart the server.
		epochEnd: oc.EpochEnd,
		validate: classifierValidation(m.Net, ds, cfg),
	}
	if oc.Verbose {
		l.verbose = func(e EpochStats) {
			s := store.Stats()
			fmt.Printf("epoch %d: offloaded=%d restored=%d corrupted=%d retried=%d recomputed=%d dropped=%d verified=%dB\n",
				e.Epoch, s.Offloaded, s.Restored, s.Corrupted, s.Retried, s.Recomputed, s.Dropped, s.BytesVerified)
		}
	}
	err := l.run(&rep)
	rep.WeightsDigest = weightsDigest(m.Net)
	return rep, store.Stats(), err
}
