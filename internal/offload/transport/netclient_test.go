package transport

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"jpegact/internal/frame"
)

// wireServer is a minimal single-purpose wire peer for client tests:
// each accepted connection is handed to handle, which speaks the raw
// protocol however the test needs (answer, stall, die mid-frame).
func wireServer(t *testing.T, handle func(conn net.Conn, nth int)) Dialer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var n atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(conn, int(n.Add(1)-1))
		}
	}()
	addr := ln.Addr().String()
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// TestDeadServerReturnsStoreUnavailable: with a huge attempt count but a
// small total wall budget, a server nobody answers for must fail fast
// with the typed ErrStoreUnavailable — not spin through every attempt.
func TestDeadServerReturnsStoreUnavailable(t *testing.T) {
	dial := func() (net.Conn, error) { return nil, errors.New("connection refused") }
	c := NewNetClient(dial, nil)
	r := Retry{Attempts: 1 << 20, Total: 50 * time.Millisecond}
	start := time.Now()
	_, err := c.Put(7, testFrame(t), r)
	if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("want ErrStoreUnavailable, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead-server put took %v; the total budget did not bound it", elapsed)
	}
	if _, err := c.Get(7, r, false); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("want ErrStoreUnavailable from get, got %v", err)
	}
}

// TestStalledServerBoundedByOpDeadline: a server that accepts the
// connection and reads the request but never answers must be cut off by
// the per-op deadline, and the exhausted schedule must report the store
// unavailable.
func TestStalledServerBoundedByOpDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	dial := wireServer(t, func(conn net.Conn, _ int) {
		defer conn.Close()
		ReadRequest(conn) // swallow the request, never respond
		<-block
	})
	c := NewNetClient(dial, nil)
	r := Retry{Attempts: 1, OpTimeout: 50 * time.Millisecond, Total: 300 * time.Millisecond}
	start := time.Now()
	_, err := c.Get(3, r, false)
	if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("want ErrStoreUnavailable, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled get took %v; the op deadline did not fire", elapsed)
	}
}

// TestClientLevelOpTimeoutCoversHousekeeping: Delete carries no Retry
// schedule, so the client-level OpTimeout must bound it against a
// stalled server.
func TestClientLevelOpTimeoutCoversHousekeeping(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	dial := wireServer(t, func(conn net.Conn, _ int) {
		defer conn.Close()
		ReadRequest(conn)
		<-block
	})
	c := NewNetClient(dial, nil)
	c.OpTimeout = 30 * time.Millisecond
	start := time.Now()
	if err := c.Delete(9); err == nil {
		t.Fatal("delete against a stalled server must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled delete took %v; OpTimeout did not bound it", elapsed)
	}
}

// TestCorruptResponseStaysTypedAfterBudget: when the schedule exhausts
// on payload corruption (the server answered, the frame is damaged),
// the error must stay the frame error — unavailability is only for
// connection-level failure.
func TestCorruptResponseStaysTypedAfterBudget(t *testing.T) {
	buf := testFrame(t)
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xff
	dial := wireServer(t, func(conn net.Conn, _ int) {
		defer conn.Close()
		for {
			if _, err := ReadRequest(conn); err != nil {
				return
			}
			WriteResponse(conn, StatusOK, bad)
		}
	})
	c := NewNetClient(dial, nil)
	_, err := c.Get(2, Retry{Attempts: 2, Total: time.Second}, false)
	if err == nil || errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("corrupt payload must not report unavailability: %v", err)
	}
	if !errors.Is(err, frame.ErrChecksum) && !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("want a typed frame error, got %v", err)
	}
}

// TestDialWatchdogBoundsHangingDialer: a Dialer that never returns must
// be cut off by the per-op deadline (the one I/O a conn deadline cannot
// cover).
func TestDialWatchdogBoundsHangingDialer(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	dial := func() (net.Conn, error) { <-hang; return nil, fmt.Errorf("late") }
	c := NewNetClient(dial, nil)
	r := Retry{OpTimeout: 50 * time.Millisecond, Total: 200 * time.Millisecond}
	start := time.Now()
	if _, err := c.Get(1, r, false); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("want ErrStoreUnavailable, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hanging dial took %v", elapsed)
	}
}
