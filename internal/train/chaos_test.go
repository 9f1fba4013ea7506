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
	"jpegact/internal/splitmix"
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

// loseQuarter drops, from the live incarnation, every resident key in
// quarter i of the sequence space: the keys whose offload sequence
// number, the low 32 bits below the store's drawn base, has
// splitmix.Mix(seq)%4 == i.
func (cs *chaosStore) loseQuarter(i uint64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.srv != nil {
		cs.srv.Lose(func(key uint64) bool { return splitmix.Mix(key&(1<<32-1))%4 == i })
	}
}

// TestChaosSoakBitExact is the failure-domain acceptance test: training
// over a networked store under seeded connection chaos (resets
// mid-frame, latency spikes, stalls), with a quarter of the stored keys
// lost mid-step twice and the whole server killed for a full epoch and
// then restarted, must converge to final weights bit-identical to a
// fault-free in-process run. Every recovery mechanism is
// content-transparent — reconnect+resend, a replay of the step whose
// frames the store lost, the breaker keeping frames off a dead wire —
// so no amount of injected failure may change a single weight bit. The
// run must also actually exercise the machinery: both losses replayed a
// step, and degraded ops, reconnects and injected resets are all
// nonzero.
func TestChaosSoakBitExact(t *testing.T) {
	atWorkers(t, 2)
	cfg := Config{Epochs: 3, BatchesPerEpoch: 2, BatchSize: 4, LR: 0.05}
	run := func(oc OffloadOptions) (Report, offload.Stats, *models.Model) {
		m, ds := faultModel(901)
		oc.DQT = quant.OptL()
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
	cs := newChaosStore(t, netstore.Config{})
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

	// Deterministic mid-step losses: when the wire has carried the Nth
	// PUT, drop one quarter of the sequence space (loseQuarter) while its
	// entries are still resident, so a restore that follows finds its
	// frame gone and the step is replayed. The quarter is picked by
	// sequence number, so which frames go is known. A step claims 13
	// sequence numbers, the last a BRC frame, which never goes on the
	// wire. The engine's first step sends the other 12 (puts 1-12, seqs
	// 0-11); from its second step on — the replay included — the last 4
	// stay on the device, so 9 go on the wire. At put 8 (seqs 0-7
	// acknowledged, forward of epoch 0's first step) six of them are in
	// quarter 0. That step's replay is puts 13-21 (seqs 13-21, 22-25
	// held), so the second step's forward is puts 22-30 (seqs 26-34): at
	// put 27 (seqs 26-31) three of them are in quarter 2, and the second
	// step is replayed too (puts 31-39).
	var wirePuts atomic.Uint64
	chaosRep, stats, chaosModel := run(OffloadOptions{
		StoreDial:    transport.Dialer(inj.WrapDialer(dial)),
		StoreTimeout: time.Second,
		ClientHook: func(c *transport.NetClient) {
			c.Latency = func(op uint8, _ time.Duration) {
				if op != transport.OpPut {
					return
				}
				switch wirePuts.Add(1) {
				case 8:
					cs.loseQuarter(0)
				case 27:
					cs.loseQuarter(2)
				}
			}
		},
		EpochEnd: func(e EpochStats) {
			switch e.Epoch {
			case 0:
				// The server dies outright: epoch 1 trains entirely
				// degraded, the breaker keeping every frame off the wire.
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
	if stats.Recomputed < 2 {
		t.Fatalf("%d recomputes — a key loss went unnoticed", stats.Recomputed)
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
