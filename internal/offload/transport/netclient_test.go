package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
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
		ReadRequest(conn, nil) // swallow the request, never respond
		<-block
	})
	c := NewNetClient(dial, nil)
	c.OpTimeout = 50 * time.Millisecond
	r := Retry{Attempts: 1, Total: 300 * time.Millisecond}
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
		ReadRequest(conn, nil)
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
			if _, err := ReadRequest(conn, nil); err != nil {
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
	c.OpTimeout = 50 * time.Millisecond
	r := Retry{Total: 200 * time.Millisecond}
	start := time.Now()
	if _, err := c.Get(1, r, false); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("want ErrStoreUnavailable, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hanging dial took %v", elapsed)
	}
}

// TestOneChargeRule: a Retry schedule ends the same way whatever loses
// its tries — the connection dying under the request (the poison pass)
// or the peer refusing the payload's CRC (the single-op path): as many
// tries on the wire, the same Retried/Corrupted counts, the same backoff
// sequence through the injected Sleep. Only the verdict differs: a
// schedule lost to the connection is ErrStoreUnavailable, one lost to
// the payload keeps the frame error.
func TestOneChargeRule(t *testing.T) {
	good := testFrame(t)
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff

	type outcome struct {
		tries              int64
		retried, corrupted uint64
		sleeps             string
	}
	// run plays one op against a peer that loses every try, and returns
	// how the schedule ended.
	run := func(t *testing.T, put, connLoss bool, r Retry, stallAt int) (outcome, error) {
		var tries atomic.Int64
		dial := wireServer(t, func(conn net.Conn, _ int) {
			defer conn.Close()
			for {
				if _, err := ReadRequest(conn, nil); err != nil {
					return
				}
				tries.Add(1)
				switch {
				case connLoss:
					return // hang up on the request
				case put:
					WriteResponse(conn, StatusCorrupt, nil)
				default:
					WriteResponse(conn, StatusOK, bad)
				}
			}
		})
		var mu sync.Mutex
		var sleeps []time.Duration
		r.Sleep = func(d time.Duration) {
			mu.Lock()
			sleeps = append(sleeps, d)
			n := len(sleeps)
			mu.Unlock()
			if n == stallAt {
				time.Sleep(r.Total) // the wall budget runs out during this backoff
			}
		}
		counters := &Counters{}
		c := NewNetClient(dial, counters)
		defer c.Close()
		var err error
		if put {
			_, err = c.Put(1, good, r)
		} else {
			_, err = c.Get(1, r, false)
		}
		mu.Lock()
		defer mu.Unlock()
		return outcome{tries.Load(), counters.Retried.Load(), counters.Corrupted.Load(), fmt.Sprint(sleeps)}, err
	}

	for _, c := range []struct {
		name    string
		r       Retry
		stallAt int // which backoff sleep outlasts Total (0 = none)
		want    outcome
	}{
		{"attempts", Retry{Attempts: 3, Backoff: time.Millisecond}, 0,
			outcome{4, 3, 4, "[1ms 2ms 4ms]"}},
		{"total expires mid-schedule", Retry{Attempts: 5, Backoff: time.Millisecond, Total: 400 * time.Millisecond}, 2,
			outcome{3, 2, 3, "[1ms 2ms]"}},
	} {
		for _, put := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/put=%v", c.name, put), func(t *testing.T) {
				conn, connErr := run(t, put, true, c.r, c.stallAt)
				payload, payloadErr := run(t, put, false, c.r, c.stallAt)
				if conn != c.want || payload != c.want {
					t.Fatalf("schedule ended\n lost to the connection: %+v\n lost to the payload:    %+v\n want                    %+v", conn, payload, c.want)
				}
				if !errors.Is(connErr, ErrStoreUnavailable) {
					t.Errorf("lost to the connection: want ErrStoreUnavailable, got %v", connErr)
				}
				if payloadErr == nil || errors.Is(payloadErr, ErrStoreUnavailable) || !errors.Is(payloadErr, frame.ErrChecksum) {
					t.Errorf("lost to the payload: want the frame's checksum error, got %v", payloadErr)
				}
			})
		}
	}
}
