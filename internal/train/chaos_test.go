package train

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jpegact/internal/models"
	"jpegact/internal/netfaults"
	"jpegact/internal/offload"
	"jpegact/internal/offload/netstore"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
)

// chaosStore is a killable, restartable activation store pinned to one
// socket path.
type chaosStore struct {
	t    *testing.T
	addr string
	cfg  netstore.Config

	mu  sync.Mutex
	srv *netstore.Server
}

func newChaosStore(t *testing.T, cfg netstore.Config) *chaosStore {
	cs := &chaosStore{
		t:    t,
		addr: "unix:" + filepath.Join(t.TempDir(), "store.sock"),
		cfg:  cfg,
	}
	cs.start()
	t.Cleanup(cs.stop)
	return cs
}

func (cs *chaosStore) start() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.srv != nil {
		return
	}
	srv := netstore.New(cs.cfg)
	ln, err := srv.Listen(cs.addr)
	if err != nil {
		cs.t.Fatal(err)
	}
	go srv.Serve(ln)
	cs.srv = srv
}

// stop hard-kills the current incarnation; the socket address becomes a
// dead endpoint.
func (cs *chaosStore) stop() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.srv == nil {
		return
	}
	cs.srv.Close()
	cs.srv = nil
}

func (cs *chaosStore) killShard(i int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.srv != nil {
		cs.srv.KillShard(i)
	}
}

// TestChaosSoakBitExact is the failure-domain acceptance test: training
// over a networked store under seeded connection chaos (resets
// mid-frame, latency spikes, stalls), with a storage shard killed
// mid-step twice and the whole server killed for a full epoch and then
// restarted, must converge to final weights bit-identical to a
// fault-free in-process run. Every recovery mechanism is
// content-transparent — reconnect+resend, recompute replay of the
// frames a killed shard took with it, breaker degradation to the local
// fallback — so no amount of injected failure may change a single
// weight bit. The run must also actually exercise the machinery:
// recomputes, degraded ops, reconnects and injected resets all nonzero.
//
// Both runs restore spatially: a step the recompute rebuilt restores
// every activation spatially by design (its refs are absent from the
// coefficient plan), so a frequency-domain run that loses a frame cannot
// match the fault-free frequency-domain run bit for bit.
func TestChaosSoakBitExact(t *testing.T) {
	atWorkers(t, 2)
	cfg := Config{Epochs: 3, BatchesPerEpoch: 2, BatchSize: 4, LR: 0.05}
	run := func(oc OffloadOptions) (Report, offload.Stats, *models.Model) {
		m, ds := faultModel(901)
		oc.DQT = quant.OptL()
		oc.Async = true
		oc.Policy = offload.PolicyRecompute
		oc.MaxRetries = 3
		rep, stats, err := ClassifierOffloaded(m, ds, cfg, oc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Diverged {
			t.Fatal("diverged")
		}
		return rep, stats, m
	}

	// Fault-free in-process reference.
	refRep, _, refModel := run(OffloadOptions{})

	// Chaos-ridden networked run.
	cs := newChaosStore(t, netstore.Config{Shards: 4})
	dial, err := transport.DialAddr(cs.addr)
	if err != nil {
		t.Fatal(err)
	}
	inj := netfaults.New(netfaults.Config{
		Seed:     42,
		PReset:   0.02,
		PLatency: 0.05, Latency: 2 * time.Millisecond,
		PStall: 0.05, Stall: 50 * time.Millisecond,
	})

	// Deterministic mid-step shard kills: when the wire has carried the
	// Nth PUT, wipe a shard while its entries are still resident, so a
	// restore that follows finds its frame gone and the step is
	// recomputed. Keys are the store's sequence numbers, so the shard map
	// is known. A step offloads 13 frames, and its recompute re-offloads
	// all 13: at put 8 (seqs 0-7 acknowledged, forward of epoch 0's first
	// step) shard 0 holds six of them; the first step ends at put 26, so
	// at put 34 (seqs 26-33, second step) shard 2 holds three.
	var wirePuts atomic.Uint64
	chaosRep, stats, chaosModel := run(OffloadOptions{
		StoreDial:    transport.Dialer(inj.WrapDialer(dial)),
		StoreTimeout: time.Second,
		StoreClient: func(c *transport.NetClient) {
			c.Latency = func(op uint8, _ time.Duration) {
				if op != transport.OpPut {
					return
				}
				switch wirePuts.Add(1) {
				case 8:
					cs.killShard(0)
				case 34:
					cs.killShard(2)
				}
			}
		},
		EpochEnd: func(epoch int) {
			switch epoch {
			case 0:
				// The server dies outright: epoch 1 trains entirely
				// degraded through the breaker's local fallback.
				cs.stop()
			case 1:
				// It comes back: once probation is served, the
				// breaker's half-open probe finds it and traffic returns
				// to the wire.
				cs.start()
			}
		},
	})

	sameWeights(t, refModel, chaosModel, "chaos vs fault-free")
	for i := range refRep.Epochs {
		if refRep.Epochs[i].Loss != chaosRep.Epochs[i].Loss {
			t.Fatalf("epoch %d loss diverged: %v vs %v", i, refRep.Epochs[i].Loss, chaosRep.Epochs[i].Loss)
		}
	}

	// The run must have actually lived through the failure modes.
	if stats.Recomputed == 0 {
		t.Fatal("no recomputes — the shard kills went unnoticed")
	}
	if stats.Degraded == 0 {
		t.Fatal("no degraded ops — the breaker never engaged")
	}
	if stats.Reconnects == 0 {
		t.Fatal("no reconnects — resets never bit")
	}
	if inj.Stats().Resets == 0 {
		t.Fatal("the chaos injector never reset a connection")
	}
}
