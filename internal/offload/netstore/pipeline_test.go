package netstore

// Deterministic pipelining smoke: the server injects a fixed per-op
// response latency (Config.respDelay), so a stop-and-wait client pays
// it once per GET while a windowed client overlaps the delays of every
// request in flight. The wall-clock ratio is the pipelining win — no
// real network, no flaky timing floor, reproducible in CI.

import (
	"testing"
	"time"

	"jpegact/internal/offload/transport"
)

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
// latency and 64 GETs, a window-8 client must finish in well under the
// stop-and-wait wall clock. The 0.6× bound is loose — the ideal ratio
// at window 8 is ~1/8 — so scheduler noise cannot flake it, but a
// client that secretly serializes cannot pass it.
func TestWindowedGetsOverlapInjectedLatency(t *testing.T) {
	const n = 64
	_, dial := startServer(t, Config{respDelay: 2 * time.Millisecond})
	c := transport.NewNetClient(dial, nil)
	c.OpTimeout = 10 * time.Second
	r := transport.Retry{Attempts: 2}
	for k := 1; k <= n; k++ {
		if _, err := c.Put(uint64(k), testFrame(t, byte(k)), r); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	c.Close()

	serial := timeGets(t, dial, 1, n)
	piped := timeGets(t, dial, 8, n)
	ratio := float64(piped) / float64(serial)
	t.Logf("serial=%v pipelined=%v ratio=%.2f", serial, piped, ratio)
	if ratio > 0.6 {
		t.Fatalf("pipelined GETs did not overlap the injected latency: serial=%v pipelined=%v (ratio %.2f > 0.6)",
			serial, piped, ratio)
	}
}
