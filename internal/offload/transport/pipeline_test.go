package transport

// Failure-domain tests for the pipelined client: the windowed async API
// must keep every PR-2 recovery invariant the stop-and-wait path has —
// a connection failure mid-window poisons every in-flight op and the
// tail is resent in its original issue order, submissions past the
// window block instead of flooding, and the whole machine converges
// through the deterministic chaos injector.

import (
	"net"
	"sync"
	"testing"
	"time"

	"jpegact/internal/frame"
	"jpegact/internal/netfaults"
	"jpegact/internal/tensor"
)

// keyFrame builds a small valid frame whose payload carries the key, so
// a response can be matched to the request it answers.
func keyFrame(key uint64) []byte {
	b := byte(key)
	f := &frame.Frame{
		Codec:   frame.CodecZVC,
		Shape:   tensor.Shape{N: 1, C: 1, H: 2, W: 2},
		Scales:  []float32{1},
		Payload: []byte{b, b, b, b},
	}
	return frame.EncodeFrame(f)
}

// TestMidWindowResetResendsInOrder: 8 GETs in flight on a
// window-8 client; the server kills the connection after answering 3 of
// them. The poisoned tail must be resent on the next connection in its
// original issue order, every op must still land on the right frame,
// and the failure must show in the Reconnects/Retried counters.
func TestMidWindowResetResendsInOrder(t *testing.T) {
	var mu sync.Mutex
	seq := map[int][]uint64{} // per-connection GET key sequence
	dial := wireServer(t, func(conn net.Conn, nth int) {
		defer conn.Close()
		answered := 0
		for {
			req, err := ReadRequest(conn, nil)
			if err != nil {
				return
			}
			if req.Op != OpGet {
				WriteResponse(conn, StatusOK, nil)
				continue
			}
			mu.Lock()
			seq[nth] = append(seq[nth], req.Key)
			mu.Unlock()
			if nth == 0 && answered == 3 {
				return // cut mid-window: the rest are in flight, unanswered
			}
			if WriteResponse(conn, StatusOK, keyFrame(req.Key)) != nil {
				return
			}
			answered++
		}
	})
	var counters Counters
	c := NewNetClient(dial, &counters)
	c.Window = 8
	c.OpTimeout = 5 * time.Second
	defer c.Close()
	r := Retry{Attempts: 3}
	var pending []*Pending
	for k := uint64(1); k <= 8; k++ {
		pending = append(pending, c.GetAsync(k, r, false))
	}
	for i, p := range pending {
		f, err := p.GetResult()
		if err != nil {
			t.Fatalf("get %d: %v", i+1, err)
		}
		if want := byte(i + 1); f.Payload[0] != want {
			t.Fatalf("get %d returned frame %d — responses matched out of order", i+1, f.Payload[0])
		}
	}
	if counters.Reconnects.Load() == 0 || counters.Retried.Load() == 0 {
		t.Fatalf("mid-window cut not accounted: %+v", counters.Snapshot())
	}
	mu.Lock()
	defer mu.Unlock()
	replay := seq[1]
	if len(replay) == 0 {
		t.Fatal("no op was replayed on the second connection")
	}
	// The replay must be the contiguous ascending tail of the original
	// issue order, starting where the first connection stopped answering.
	first := replay[0]
	for i, k := range replay {
		if k != first+uint64(i) {
			t.Fatalf("replay out of order: %v", replay)
		}
	}
	if replay[len(replay)-1] != 8 {
		t.Fatalf("replay did not cover the tail: %v", replay)
	}
}

// TestSubmitPastFullWindowBlocks: a submission past a full window must
// block until a response frees a slot — the client never floods a slow
// server with an unbounded queue.
func TestSubmitPastFullWindowBlocks(t *testing.T) {
	release := make(chan struct{})
	dial := wireServer(t, func(conn net.Conn, nth int) {
		defer conn.Close()
		for {
			req, err := ReadRequest(conn, nil)
			if err != nil {
				return
			}
			<-release
			if WriteResponse(conn, StatusOK, keyFrame(req.Key)) != nil {
				return
			}
		}
	})
	c := NewNetClient(dial, nil)
	c.Window = 2
	c.OpTimeout = 5 * time.Second
	defer c.Close()
	r := Retry{Attempts: 1}
	p1 := c.GetAsync(1, r, false)
	p2 := c.GetAsync(2, r, false)
	third := make(chan *Pending)
	go func() { third <- c.GetAsync(3, r, false) }()
	select {
	case <-third:
		t.Fatal("third submission was admitted past a full window of 2")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	p3 := <-third
	for i, p := range []*Pending{p1, p2, p3} {
		f, err := p.GetResult()
		if err != nil {
			t.Fatalf("get %d: %v", i+1, err)
		}
		if f.Payload[0] != byte(i+1) {
			t.Fatalf("get %d returned frame %d", i+1, f.Payload[0])
		}
	}
}

// TestWindowedClientConvergesUnderChaos: a window-8 client against a correct
// in-memory store reached through the deterministic fault injector.
// Every op must converge to the right bytes through resets and latency
// spikes, and the injected resets must be visible in the counters.
func TestWindowedClientConvergesUnderChaos(t *testing.T) {
	var smu sync.Mutex
	store := map[uint64][]byte{}
	raw := wireServer(t, func(conn net.Conn, nth int) {
		defer conn.Close()
		for {
			req, err := ReadRequest(conn, nil)
			if err != nil {
				return
			}
			var werr error
			switch req.Op {
			case OpPut:
				smu.Lock()
				body := append([]byte(nil), req.Body...)
				store[req.Key] = body
				smu.Unlock()
				werr = WriteResponse(conn, StatusOK, nil)
			case OpGet:
				smu.Lock()
				b, ok := store[req.Key]
				smu.Unlock()
				if ok {
					werr = WriteResponse(conn, StatusOK, b)
				} else {
					werr = WriteResponse(conn, StatusNotFound, nil)
				}
			default:
				werr = WriteResponse(conn, StatusOK, nil)
			}
			if werr != nil {
				return
			}
		}
	})
	inj := netfaults.New(netfaults.Config{
		Seed:     7,
		PReset:   0.08,
		PLatency: 0.05, Latency: time.Millisecond,
	})
	var counters Counters
	c := NewNetClient(Dialer(inj.WrapDialer(raw)), &counters)
	c.Window = 8
	c.OpTimeout = 2 * time.Second
	defer c.Close()
	r := Retry{Attempts: 32, Total: 60 * time.Second}
	const n = 64
	for k := uint64(1); k <= n; k++ {
		if _, err := c.Put(k, keyFrame(k), r); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	var pending []*Pending
	for k := uint64(1); k <= n; k++ {
		pending = append(pending, c.GetAsync(k, r, false))
	}
	for i, p := range pending {
		f, err := p.GetResult()
		if err != nil {
			t.Fatalf("get %d: %v", i+1, err)
		}
		if f.Payload[0] != byte(i+1) {
			t.Fatalf("get %d returned frame %d under chaos", i+1, f.Payload[0])
		}
	}
	if inj.Stats().Resets == 0 {
		t.Fatal("chaos seed injected no resets; the test proved nothing")
	}
	if counters.Reconnects.Load() == 0 {
		t.Fatalf("resets occurred but no reconnects were counted: %+v", counters.Snapshot())
	}
}

// TestFIFODiscipline pins the issue/await helper the schedulers share:
// it is as deep as the transport reports (a zero-value client is
// pipelined at DefaultWindow, Window = 1 and the in-process backend are
// stop-and-wait), it settles strictly oldest first, Reserve settles only
// until there is room, and once a settle fails the tickets queued behind
// it are still settled — none is left holding a handle — while the first
// error is the one returned.
func TestFIFODiscipline(t *testing.T) {
	piped := NewNetClient(nil, nil) // never dialed: only its depth is read
	serial := NewNetClient(nil, nil)
	serial.Window = 1
	for _, c := range []struct {
		tr   Transport
		want int
	}{{piped, DefaultWindow}, {serial, 1}, {NewLocal(nil, nil), 1}} {
		if got := c.tr.Depth(); got != c.want {
			t.Fatalf("%T depth %d, want %d", c.tr, got, c.want)
		}
	}

	var settled []int
	failAt := -1
	f := NewFIFO(piped, func(n int) error {
		settled = append(settled, n)
		if n == failAt {
			return net.ErrClosed
		}
		return nil
	})
	for n := 0; n < DefaultWindow+2; n++ {
		if err := f.Reserve(); err != nil {
			t.Fatal(err)
		}
		f.Push(n)
	}
	if !f.Full() || f.Len() != DefaultWindow || len(settled) != 2 || settled[0] != 0 || settled[1] != 1 {
		t.Fatalf("after %d issues: %d queued, settled %v", DefaultWindow+2, f.Len(), settled)
	}
	failAt = 4
	if err := f.Drain(); err != net.ErrClosed {
		t.Fatalf("drain returned %v, want the failing settle's error", err)
	}
	if f.Len() != 0 || len(settled) != DefaultWindow+2 {
		t.Fatalf("a failed settle left %d tickets queued (settled %v)", f.Len(), settled)
	}
	for i, n := range settled {
		if n != i {
			t.Fatalf("settled out of order: %v", settled)
		}
	}
}
