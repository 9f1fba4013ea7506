package offload

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"jpegact/internal/netfaults"
	"jpegact/internal/nn"
	"jpegact/internal/offload/netstore"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// wireOp is one request as the server read it.
type wireOp struct {
	op  uint8
	key uint64
}

// opLog collects the requests of every connection a tapListener accepts,
// in the order the server read them, and counts connections in and out
// so a test can wait for the server to be done with the ones it dialed.
type opLog struct {
	mu     sync.Mutex
	ops    []wireOp
	dialed int // connections opened through dialer
	ended  int // connections the server has read to their end
}

func (l *opLog) parse(r io.Reader) {
	defer func() {
		l.mu.Lock()
		l.ended++
		l.mu.Unlock()
	}()
	for {
		req, err := transport.ReadRequest(r, nil)
		if err != nil {
			return
		}
		l.mu.Lock()
		l.ops = append(l.ops, wireOp{req.Op, req.Key})
		l.mu.Unlock()
	}
}

// settled waits until the server has read every connection dialed so
// far to its end — it executes a request before reading the next, so by
// then it has also executed everything those connections carried — and
// returns with l.mu held.
func (l *opLog) settled() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		if l.ended == l.dialed {
			return nil
		}
		l.mu.Unlock()
		if time.Now().After(deadline) {
			return errors.New("the server is still reading a connection its client closed")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// dialer wraps dial so that a connection is opened only once the server
// is done with its predecessors. The wire protocol does not fence
// connections: a request still buffered on a dead connection is executed
// whenever the server gets to it, and if that is after its resend's
// whole PUT → GET → DELETE life on the next connection, the stale PUT
// resurrects a deleted key (keys are never reused, so the cost is a
// leaked entry, not wrong bytes). With steps this short a descheduled
// server goroutine is enough to hit it, so the test imposes the order a
// real step's length makes overwhelmingly likely; what it pins is the
// resend order, not that race.
func (l *opLog) dialer(dial transport.Dialer) transport.Dialer {
	return func() (net.Conn, error) {
		if err := l.settled(); err != nil {
			return nil, err
		}
		defer l.mu.Unlock()
		c, err := dial()
		if err == nil {
			l.dialed++
		}
		return c, err
	}
}

// take waits for the server to be done with every connection, then
// empties the log, returning it as the two sequences the engine pins:
// commits and staging reads come from one goroutine at a time (the
// drainer, then the prefetcher), deletes from the consumer — whose
// interleaving with the prefetcher's reads is scheduling, at any window.
func (l *opLog) take(t *testing.T) (putsAndGets, deletes []wireOp) {
	t.Helper()
	if err := l.settled(); err != nil {
		t.Fatal(err)
	}
	defer l.mu.Unlock()
	for _, o := range l.ops {
		if o.op == transport.OpDelete {
			deletes = append(deletes, o)
		} else {
			putsAndGets = append(putsAndGets, o)
		}
	}
	l.ops = nil
	return putsAndGets, deletes
}

// tapListener tees every byte the server reads into the log's parser.
type tapListener struct {
	net.Listener
	log *opLog
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	go l.log.parse(pr)
	return &tapConn{Conn: c, tee: pw}, nil
}

type tapConn struct {
	net.Conn
	tee *io.PipeWriter
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.tee.Write(b[:n])
	}
	if err != nil {
		c.tee.CloseWithError(err)
	}
	return n, err
}

// Close ends the log's parse of the connection: the server closes it
// without a further read once a write to it fails.
func (c *tapConn) Close() error {
	c.tee.Close()
	return c.Conn.Close()
}

// twoSteps drives two offloaded training steps' worth of traffic through
// an engine over s — more activations per step than the default
// wire window holds, restored in reverse through a 4-deep prefetcher,
// with the second step's last 4 held on the device — and returns every
// restored tensor.
func twoSteps(t *testing.T, s *Store) []*tensor.Tensor {
	t.Helper()
	const perStep = 12
	eng := NewEngine(s, EngineConfig{})
	defer eng.Close()
	var restored []*tensor.Tensor
	for step := 0; step < 2; step++ {
		refs := make([]*nn.ActRef, perStep)
		for i := range refs {
			refs[i] = denseRef(uint64(1000*step + i))
		}
		eng.BeginStep()
		for _, ref := range refs {
			eng.Offload(ref)
		}
		if _, _, err := eng.EndForward(nil); err != nil {
			t.Fatalf("step %d forward: %v", step, err)
		}
		if err := eng.PrepareBackward(); err != nil {
			t.Fatalf("step %d prepare: %v", step, err)
		}
		for i := perStep - 1; i >= 0; i-- {
			if err := eng.Restore(refs[i]); err != nil {
				t.Fatalf("step %d restore %d: %v", step, i, err)
			}
			restored = append(restored, refs[i].T)
		}
		if err := eng.EndStep(); err != nil {
			t.Fatalf("step %d end: %v", step, err)
		}
	}
	if n := s.Stored(); n != 0 {
		t.Fatalf("%d activations left in the store", n)
	}
	return restored
}

func sameTensors(t *testing.T, label string, want, got []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tensors, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] == nil || got[i].Shape != want[i].Shape {
			t.Fatalf("%s: tensor %d missing or misshapen", label, i)
		}
		for j, v := range want[i].Data {
			if got[i].Data[j] != v {
				t.Fatalf("%s: tensor %d element %d differs", label, i, j)
			}
		}
	}
}

// TestEngineWindowedOverWire is the windowed engine's tier-1 coverage:
// the commit drain and the prefetcher take their window from the
// transport, so the same two steps over the in-process backend, a
// stop-and-wait wire client and the default (pipelined) wire client — the
// one the trainers build — must restore identical tensors, put the same
// request sequence in front of the server, drain both ends and leave no
// goroutine behind. Then the pipelined client again through a connection
// that keeps being reset mid-stream.
func TestEngineWindowedOverWire(t *testing.T) {
	want := twoSteps(t, NewStore(quant.OptL()))

	log := &opLog{}
	srv := netstore.New(netstore.Config{})
	addr := "unix:" + filepath.Join(t.TempDir(), "store.sock")
	ln, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(tapListener{ln, log})
	defer srv.Close()
	dial, err := transport.DialAddr(addr)
	if err != nil {
		t.Fatal(err)
	}

	// wire runs the two steps over one client and returns what the server
	// read, checking both ends drained and every goroutine the run started
	// (engine pool, drainer, prefetcher, client pump and reader, the
	// server's connection handlers) has exited.
	wire := func(label string, dial transport.Dialer, window int) (*Store, []wireOp, []wireOp) {
		t.Helper()
		before := runtime.NumGoroutine()
		s := NewStore(quant.OptL())
		c := transport.NewNetClient(log.dialer(dial), s.Counters())
		c.Window = window
		s.Transport = c
		s.KeyBase = 7 << 32
		s.Recovery = Recovery{Policy: PolicyRetry, MaxRetries: 16}
		if d := c.Depth(); (window == 1) != (d == 1) {
			t.Fatalf("%s: client depth %d at Window %d", label, d, window)
		}
		sameTensors(t, label, want, twoSteps(t, s))
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		pg, del := log.take(t)
		if n := srv.Entries(); n != 0 {
			t.Fatalf("%s: %d entries left on the server", label, n)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the run", label, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		return s, pg, del
	}

	_, serialOps, serialDel := wire("window 1", dial, 1)
	_, pipedOps, pipedDel := wire("default window", dial, 0)
	// Step 1 sends all 12 frames; step 2 holds its last 4 off the wire.
	if len(serialOps) != 2*(12+8) || len(serialDel) != 12+8 {
		t.Fatalf("stop-and-wait run: %d puts+gets, %d deletes", len(serialOps), len(serialDel))
	}
	if fmt.Sprint(serialOps) != fmt.Sprint(pipedOps) {
		t.Fatalf("put/get sequence differs between windows:\n window 1: %v\n default:  %v", serialOps, pipedOps)
	}
	if fmt.Sprint(serialDel) != fmt.Sprint(pipedDel) {
		t.Fatalf("delete sequence differs between windows:\n window 1: %v\n default:  %v", serialDel, pipedDel)
	}

	// The same pipelined run with connections that die mid-window: every
	// reset poisons whatever is in flight and the resend must put it back
	// in order. The request log now holds resends, so only the outcome is
	// compared.
	inj := netfaults.New(netfaults.Config{Seed: 14, PReset: 0.03})
	s, _, _ := wire("default window, resets", inj.WrapDialer(dial), 0)
	if st := s.Stats(); st.Reconnects == 0 || inj.Stats().Resets == 0 {
		t.Fatalf("no reset was injected: reconnects=%d injector=%+v", st.Reconnects, inj.Stats())
	}
}
