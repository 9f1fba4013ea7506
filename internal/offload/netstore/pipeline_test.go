package netstore

// Deterministic pipelining smoke: the client's connection delivers each
// request a fixed lag after it was written (lagConn), so a stop-and-wait
// client pays the lag once per GET while a windowed client overlaps the
// lags of every request in flight. The wall-clock ratio is the
// pipelining win — no real network, no flaky timing floor, reproducible
// in CI.

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"jpegact/internal/offload/transport"
)

// lagConn delivers each write to the server lag after it was made, in
// order, without blocking the writer: the one-way latency of a network
// link.
type lagConn struct {
	net.Conn
	lag  time.Duration
	q    chan lagged
	done chan struct{}
	once sync.Once
}

type lagged struct {
	due time.Time
	b   []byte
}

// lagDialer wraps dial so that every connection it opens is a lagConn.
func lagDialer(dial transport.Dialer, lag time.Duration) transport.Dialer {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		// The queue holds more writes than any window keeps in flight.
		c := &lagConn{Conn: conn, lag: lag, q: make(chan lagged, 64), done: make(chan struct{})}
		go c.deliver()
		return c, nil
	}
}

func (c *lagConn) Write(b []byte) (int, error) {
	select {
	case c.q <- lagged{time.Now().Add(c.lag), bytes.Clone(b)}:
		return len(b), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

func (c *lagConn) deliver() {
	for {
		select {
		case m := <-c.q:
			time.Sleep(time.Until(m.due))
			if _, err := c.Conn.Write(m.b); err != nil {
				return
			}
		case <-c.done:
			return
		}
	}
}

func (c *lagConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
}

// timeGets fetches keys 1..n through a client with the given window and
// returns the wall clock. All n handles are issued before any result is
// awaited, so the window alone decides how many ops overlap.
func timeGets(t *testing.T, dial transport.Dialer, window, n int) time.Duration {
	t.Helper()
	c := transport.NewNetClient(dial, nil)
	c.Window = window
	c.OpTimeout = 10 * time.Second
	defer c.Close()
	r := transport.Retry{Attempts: 2}
	start := time.Now()
	pending := make([]*transport.Pending, 0, n)
	for k := 1; k <= n; k++ {
		pending = append(pending, c.GetAsync(uint64(k), r, false))
	}
	for i, p := range pending {
		f, err := p.GetResult()
		if err != nil {
			t.Fatalf("window %d get %d: %v", window, i+1, err)
		}
		if f.Payload[0] != byte(i+1) {
			t.Fatalf("window %d get %d returned frame %d", window, i+1, f.Payload[0])
		}
	}
	return time.Since(start)
}

// TestWindowedGetsOverlapInjectedLatency: with 2ms of injected per-op
// link latency and 64 GETs, a window-8 client must finish in well under the
// stop-and-wait wall clock. The 0.6× bound is loose — the ideal ratio
// at window 8 is ~1/8 — so scheduler noise cannot flake it, but a
// client that secretly serializes cannot pass it.
func TestWindowedGetsOverlapInjectedLatency(t *testing.T) {
	const n = 64
	_, dial := startServer(t, Config{})
	c := transport.NewNetClient(dial, nil)
	c.OpTimeout = 10 * time.Second
	r := transport.Retry{Attempts: 2}
	for k := 1; k <= n; k++ {
		if _, err := c.Put(uint64(k), testFrame(t, byte(k)), r); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	c.Close()

	lagged := lagDialer(dial, 2*time.Millisecond)
	serial := timeGets(t, lagged, 1, n)
	piped := timeGets(t, lagged, 8, n)
	ratio := float64(piped) / float64(serial)
	t.Logf("serial=%v pipelined=%v ratio=%.2f", serial, piped, ratio)
	if ratio > 0.6 {
		t.Fatalf("pipelined GETs did not overlap the injected latency: serial=%v pipelined=%v (ratio %.2f > 0.6)",
			serial, piped, ratio)
	}
}
