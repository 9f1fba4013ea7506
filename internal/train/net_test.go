package train

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"jpegact/internal/models"
	"jpegact/internal/offload"
	"jpegact/internal/offload/netstore"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
)

// startStore brings up a netstore server on a unix socket for the
// duration of the test and returns its dialer and the server handle.
func startStore(t *testing.T) (*netstore.Server, transport.Dialer) {
	t.Helper()
	srv := netstore.New(netstore.Config{})
	addr := "unix:" + filepath.Join(t.TempDir(), "store.sock")
	ln, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	dial, err := transport.DialAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	return srv, dial
}

// dyingConn closes the connection after carrying a byte budget of
// writes — a connection drop mid-stream, usually mid-frame.
type dyingConn struct {
	net.Conn
	left int
}

func (c *dyingConn) Write(b []byte) (int, error) {
	if c.left <= 0 {
		c.Conn.Close()
		return 0, errors.New("injected connection drop")
	}
	if len(b) > c.left {
		n, _ := c.Conn.Write(b[:c.left])
		c.left = 0
		c.Conn.Close()
		return n, errors.New("injected connection drop mid-frame")
	}
	c.left -= len(b)
	return c.Conn.Write(b)
}

// droppingDialer gives every connection a finite write budget, so the
// link keeps dying under sustained traffic and the client must keep
// reconnecting and resending to make progress.
func droppingDialer(dial transport.Dialer, budget int) transport.Dialer {
	var mu sync.Mutex
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		return &dyingConn{Conn: conn, left: budget}, nil
	}
}

// sameWeights asserts two trained models are bit-identical parameter by
// parameter.
func sameWeights(t *testing.T, a, b *models.Model, label string) {
	t.Helper()
	pa, pb := a.Net.Params(), b.Net.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: param count %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("%s: weight %q[%d] diverged", label, pa[i].Name, j)
			}
		}
	}
}

// TestNetstoreTrainingBitExact is the acceptance test of the networked
// transport: training over a unix-socket activation store — with
// prefetch — must produce bit-identical final weights and epoch losses to
// the in-process transport, including
// when every connection keeps dying mid-frame and the client has to
// reconnect and resend its way through. Fault recovery may change how
// many transfers happen, never their content.
func TestNetstoreTrainingBitExact(t *testing.T) {
	run := func(oc OffloadOptions) (Report, offload.Stats, *models.Model) {
		m, ds := faultModel(700)
		oc.DQT = quant.OptL()
		rep, stats, err := ClassifierOffloaded(m, ds, faultCfg(t), oc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Diverged {
			t.Fatal("diverged")
		}
		return rep, stats, m
	}

	refRep, refStats, refModel := run(OffloadOptions{})
	if refStats.Restored == 0 {
		t.Fatal("reference run restored nothing")
	}

	// Clean network transport: only the byte path differs.
	srv, dial := startStore(t)
	netRep, netStats, netModel := run(OffloadOptions{StoreDial: dial})
	sameEpochs(t, refRep, netRep, "netstore clean")
	sameWeights(t, refModel, netModel, "netstore clean")
	if netStats.Restored != refStats.Restored {
		t.Fatalf("%d restores over the network vs %d in-process",
			netStats.Restored, refStats.Restored)
	}
	if got := srv.Snapshot(); got.Restored == 0 {
		t.Fatalf("server never served a restore: %+v", got)
	}
	if srv.Entries() != 0 {
		t.Fatalf("%d entries leaked on the server after training", srv.Entries())
	}

	// Drop-injected network transport: every connection dies after 64 KiB
	// of writes, so puts and gets keep failing mid-frame and recovery is
	// reconnect+resend on the retry schedule.
	_, dial2 := startStore(t)
	dropRep, dropStats, dropModel := run(OffloadOptions{
		StoreDial:  droppingDialer(dial2, 64<<10),
		Policy:     offload.PolicyRetry,
		MaxRetries: 6,
	})
	if dropStats.Reconnects == 0 || dropStats.Retried == 0 {
		t.Fatalf("drop injection never fired: %+v", dropStats)
	}
	sameEpochs(t, refRep, dropRep, "netstore with connection drops")
	sameWeights(t, refModel, dropModel, "netstore with connection drops")
}

// TestTrainersConfigureTheirWireClients: both trainers hand ClientHook
// wire clients whose per-attempt bound is AttemptTimeout of the run's
// StoreTimeout, and a data-parallel client is stop-and-wait (window 1)
// exactly when SerialExchange is set: the serial exchange is the
// baseline the overlapped one is measured against.
func TestTrainersConfigureTheirWireClients(t *testing.T) {
	const timeout = 3 * time.Second
	_, dial := startStore(t)
	var clients []*transport.NetClient
	hook := func(c *transport.NetClient) { clients = append(clients, c) }
	attemptBound := func(label string) {
		t.Helper()
		if len(clients) == 0 {
			t.Fatalf("%s: ClientHook saw no client", label)
		}
		for i, c := range clients {
			if c.OpTimeout != transport.AttemptTimeout(timeout) {
				t.Fatalf("%s: client %d OpTimeout %v, want %v", label, i, c.OpTimeout, transport.AttemptTimeout(timeout))
			}
		}
	}

	m, ds := faultModel(710)
	cfg := faultCfg(t)
	cfg.Epochs, cfg.BatchesPerEpoch = 1, 1
	if _, _, err := ClassifierOffloaded(m, ds, cfg, OffloadOptions{StoreDial: dial, StoreTimeout: timeout, ClientHook: hook}); err != nil {
		t.Fatal(err)
	}
	attemptBound("offloaded")

	for _, serial := range []bool{false, true} {
		clients = nil
		newModel, _, ds := dpFixture(1910)
		if _, _, err := ClassifierDataParallel(newModel, ds, cfg, DPOptions{
			Replicas: 2, Microbatches: 2, SerialExchange: serial,
			StoreDial: dial, StoreTimeout: timeout, ClientHook: hook,
		}); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("data-parallel, SerialExchange=%v", serial)
		attemptBound(label)
		if len(clients) != 3 {
			t.Fatalf("%s: %d clients, want 2 workers' and the reducer's", label, len(clients))
		}
		for i, c := range clients {
			if (c.Window == 1) != serial {
				t.Fatalf("%s: client %d window %d", label, i, c.Window)
			}
		}
	}
}
