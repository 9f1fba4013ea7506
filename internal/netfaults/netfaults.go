// Package netfaults is a deterministic network chaos injector for the
// offload stack's wire path: it wraps any net.Conn (or a dialer
// producing them) and perturbs traffic with latency spikes, stalls,
// connection resets and partial writes. It is the network sibling of
// internal/faults (which corrupts the in-process DMA channel): faults
// injects payload damage below the CRC, netfaults injects *transport*
// damage below the reconnect/retry machinery — the failure class the
// deadline and circuit-breaker layers exist to absorb.
//
// Determinism: every wrapped connection gets its own splitmix64 stream
// derived from the injector seed and the connection's dial index, and
// every fault decision is one draw from that stream at the I/O call it
// applies to — a pure function of (seed, conn index, call index), with
// no global RNG and no wall clock. Runs are reproducible given the
// same I/O sequences; and because every injected fault is absorbed by
// content-transparent machinery (reconnect+resend, degraded fallback,
// recompute), the chaos soak test can demand
// bit-identical training weights rather than "it didn't crash" no
// matter how kernel scheduling chunks the byte stream.
//
// Server kill/restart — the fault class a conn wrapper cannot express —
// is orchestrated by the harness on top (see internal/train's chaos
// test and the CI smoke job), typically triggered at deterministic op
// counts observed through the client's Latency hook.
package netfaults

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"jpegact/internal/splitmix"
)

// ErrInjected marks every failure this package fabricates, so tests
// can tell a synthetic reset from a real one.
var ErrInjected = fmt.Errorf("netfaults: injected fault")

// Config selects fault classes and rates. All probabilities are per
// I/O operation in [0,1]; zero disables the class, so the zero Config
// is a transparent passthrough.
type Config struct {
	// Seed anchors every random stream; two injectors with the same
	// seed produce the same schedule for the same traffic.
	Seed uint64
	// PLatency is the chance an op is delayed by Latency first — a
	// slow-link spike the per-op deadline must absorb.
	PLatency float64
	Latency  time.Duration
	// PStall is the chance an op hangs for Stall — long enough to trip
	// a deadline, short enough for the test to outlive it.
	PStall float64
	Stall  time.Duration
	// PReset is the chance a write is cut: a prefix of the buffer is
	// delivered (a partial write poisoning the stream mid-frame) and
	// the connection is closed. Reads hit with PReset close outright.
	PReset float64
	// Sleep is the delay implementation (nil = time.Sleep); tests
	// install a recording clock so chaos never real-sleeps.
	Sleep func(time.Duration)
}

// Stats counts injected faults (atomic; read with Snapshot).
type Stats struct {
	Conns         atomic.Uint64
	LatencySpikes atomic.Uint64
	Stalls        atomic.Uint64
	Resets        atomic.Uint64
	PartialWrites atomic.Uint64
}

// Snapshot is a point-in-time copy of Stats.
type Snapshot struct {
	Conns         uint64 `json:"conns"`
	LatencySpikes uint64 `json:"latency_spikes"`
	Stalls        uint64 `json:"stalls"`
	Resets        uint64 `json:"resets"`
	PartialWrites uint64 `json:"partial_writes"`
}

// Injector derives per-connection fault streams from one seed.
type Injector struct {
	cfg   Config
	stats Stats
}

// New builds an injector.
func New(cfg Config) *Injector {
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Injector{cfg: cfg}
}

// Stats returns the live fault counters.
func (i *Injector) Stats() Snapshot {
	return Snapshot{
		Conns:         i.stats.Conns.Load(),
		LatencySpikes: i.stats.LatencySpikes.Load(),
		Stalls:        i.stats.Stalls.Load(),
		Resets:        i.stats.Resets.Load(),
		PartialWrites: i.stats.PartialWrites.Load(),
	}
}

// Wrap returns conn with the injector's fault schedule applied. Each
// call consumes the next connection index, so wrap order — dial order —
// fixes which stream a connection gets. Streams are splitmix64 (the
// shared internal/splitmix mixer, same one the netstore shards use).
func (i *Injector) Wrap(conn net.Conn) net.Conn {
	n := i.stats.Conns.Add(1) - 1
	return &faultConn{
		Conn: conn,
		inj:  i,
		// Offset the seed so conn 0 of seed 1 shares nothing with
		// conn 1 of seed 0.
		stream: splitmix.NewStream(splitmix.Mix(i.cfg.Seed ^ (n+1)*splitmix.Gamma)),
	}
}

// WrapDialer returns a dialer whose connections carry the fault
// schedule. The signature matches transport.Dialer structurally.
func (i *Injector) WrapDialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return i.Wrap(conn), nil
	}
}

// faultConn applies one deterministic fault stream to a connection.
// The mutex serializes draws so a concurrent Read/Write pair (the
// normal pattern: one goroutine writing requests, one reading
// responses) still consumes the stream in a single well-defined order
// per operation.
type faultConn struct {
	net.Conn
	inj    *Injector
	mu     sync.Mutex
	stream *splitmix.Stream
	dead   bool
}

// chance draws one fault decision.
func (c *faultConn) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(c.stream.Next()>>11)/(1<<53) < p
}

// plan draws this op's fault plan in one locked section.
func (c *faultConn) plan() (latency, stall, reset bool, cut int, dead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false, false, false, 0, true
	}
	cfg := &c.inj.cfg
	latency = c.chance(cfg.PLatency)
	stall = c.chance(cfg.PStall)
	reset = c.chance(cfg.PReset)
	if reset {
		c.dead = true
		// The delivered prefix length is itself part of the schedule.
		cut = int(c.stream.Next() & 0xffff)
	}
	return latency, stall, reset, cut, false
}

func (c *faultConn) delays(latency, stall bool) {
	if latency {
		c.inj.stats.LatencySpikes.Add(1)
		c.inj.cfg.Sleep(c.inj.cfg.Latency)
	}
	if stall {
		c.inj.stats.Stalls.Add(1)
		c.inj.cfg.Sleep(c.inj.cfg.Stall)
	}
}

func (c *faultConn) Write(b []byte) (int, error) {
	latency, stall, reset, cut, dead := c.plan()
	if dead {
		return 0, fmt.Errorf("%w: write on reset connection", ErrInjected)
	}
	c.delays(latency, stall)
	if reset {
		c.inj.stats.Resets.Add(1)
		n := 0
		if cut %= len(b) + 1; cut > 0 {
			// Deliver a prefix so the peer sees a frame cut mid-body —
			// the poisoned-stream case — rather than a clean close.
			c.inj.stats.PartialWrites.Add(1)
			n, _ = c.Conn.Write(b[:cut])
		}
		c.Conn.Close()
		return n, fmt.Errorf("%w: connection reset during write", ErrInjected)
	}
	return c.Conn.Write(b)
}

func (c *faultConn) Read(b []byte) (int, error) {
	latency, stall, reset, _, dead := c.plan()
	if dead {
		return 0, fmt.Errorf("%w: read on reset connection", ErrInjected)
	}
	c.delays(latency, stall)
	if reset {
		c.inj.stats.Resets.Add(1)
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection reset during read", ErrInjected)
	}
	return c.Conn.Read(b)
}
