package netfaults

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"jpegact/internal/frame"
	"jpegact/internal/offload/netstore"
	"jpegact/internal/offload/transport"
	"jpegact/internal/tensor"
)

// memConn is an in-memory net.Conn sink recording what was written.
type memConn struct {
	net.Conn
	wrote  bytes.Buffer
	closed bool
}

func (m *memConn) Write(b []byte) (int, error) { return m.wrote.Write(b) }
func (m *memConn) Read(b []byte) (int, error)  { return 0, nil }
func (m *memConn) Close() error                { m.closed = true; return nil }

// schedule runs n writes through a fresh conn of an injector with the
// given seed and returns which ops faulted.
func schedule(seed uint64, n int) []bool {
	inj := New(Config{Seed: seed, PReset: 0.3, Sleep: func(time.Duration) {}})
	conn := inj.Wrap(&memConn{}).(*faultConn)
	out := make([]bool, n)
	buf := make([]byte, 64)
	for i := range out {
		_, err := conn.Write(buf)
		out[i] = err != nil
		if err != nil {
			// A reset kills the conn; re-wrap a fresh one to keep the
			// schedule going, mirroring a client reconnect.
			conn = inj.Wrap(&memConn{}).(*faultConn)
		}
	}
	return out
}

// TestDeterministicSchedule: same seed, same traffic — same faults.
// Different seed — a different schedule.
func TestDeterministicSchedule(t *testing.T) {
	a := schedule(7, 200)
	b := schedule(7, 200)
	c := schedule(8, 200)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different fault schedules")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical schedules — seed is dead")
	}
	hits := 0
	for _, f := range a {
		if f {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("degenerate schedule: %d/%d faults", hits, len(a))
	}
}

// TestResetDeliversPrefixThenCloses: an injected reset may hand the
// peer a prefix (the mid-frame cut) and must close the conn; later ops
// on the same conn fail with ErrInjected.
func TestResetDeliversPrefixThenCloses(t *testing.T) {
	inj := New(Config{Seed: 1, PReset: 1, Sleep: func(time.Duration) {}})
	sink := &memConn{}
	conn := inj.Wrap(sink)
	buf := make([]byte, 1024)
	n, err := conn.Write(buf)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if n >= len(buf) {
		t.Fatalf("reset delivered the whole buffer (%d bytes)", n)
	}
	if n != sink.wrote.Len() {
		t.Fatalf("reported %d bytes, sink saw %d", n, sink.wrote.Len())
	}
	if !sink.closed {
		t.Fatal("reset did not close the underlying conn")
	}
	if _, err := conn.Write(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on dead conn: %v", err)
	}
	if _, err := conn.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read on dead conn: %v", err)
	}
	st := inj.Stats()
	if st.Resets != 1 || st.Conns != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDelaysUseInjectedClock: latency spikes and stalls go through the
// injected Sleep, and are counted.
func TestDelaysUseInjectedClock(t *testing.T) {
	var slept []time.Duration
	inj := New(Config{
		Seed: 3, PLatency: 1, Latency: 5 * time.Millisecond,
		PStall: 1, Stall: 80 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	conn := inj.Wrap(&memConn{})
	if _, err := conn.Write(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 || slept[0] != 5*time.Millisecond || slept[1] != 80*time.Millisecond {
		t.Fatalf("slept %v", slept)
	}
	st := inj.Stats()
	if st.LatencySpikes != 1 || st.Stalls != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestZeroConfigIsTransparent: the zero config must never perturb
// anything.
func TestZeroConfigIsTransparent(t *testing.T) {
	inj := New(Config{})
	sink := &memConn{}
	conn := inj.Wrap(sink)
	for i := 0; i < 100; i++ {
		if _, err := conn.Write(make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if sink.wrote.Len() != 3200 {
		t.Fatalf("sink saw %d bytes", sink.wrote.Len())
	}
	st := inj.Stats()
	if st.Resets+st.Stalls+st.LatencySpikes+st.PartialWrites != 0 {
		t.Fatalf("zero config injected faults: %+v", st)
	}
}

// TestChaosRiddenClientStillCompletes is the package-level integration
// check: a NetClient dialing a real netstore server through heavy chaos
// must complete every op via reconnect+resend, and the frames must come
// back intact (CRC re-verified client-side).
func TestChaosRiddenClientStillCompletes(t *testing.T) {
	srv := netstore.New(netstore.Config{Shards: 4})
	ln, err := srv.Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	dial, err := transport.DialAddr("tcp:" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	inj := New(Config{Seed: 11, PReset: 0.05, PLatency: 0.1, Latency: time.Millisecond})
	var counters transport.Counters
	c := transport.NewNetClient(transport.Dialer(inj.WrapDialer(dial)), &counters)
	defer c.Close()

	f := &frame.Frame{
		Codec:   frame.CodecZVC,
		Shape:   tensor.Shape{N: 1, C: 1, H: 2, W: 2},
		Scales:  []float32{1},
		Payload: []byte{9, 8, 7, 6},
	}
	buf := frame.EncodeFrame(f)
	r := transport.Retry{Attempts: 64, OpTimeout: 2 * time.Second, Total: 30 * time.Second}
	const ops = 64
	for i := 0; i < ops; i++ {
		if _, err := c.Put(uint64(i), buf, r); err != nil {
			t.Fatalf("put %d under chaos: %v", i, err)
		}
	}
	for i := 0; i < ops; i++ {
		got, err := c.Get(uint64(i), r, false)
		if err != nil {
			t.Fatalf("get %d under chaos: %v", i, err)
		}
		if got.Payload[0] != 9 {
			t.Fatalf("frame %d corrupted through chaos: %+v", i, got)
		}
	}
	if inj.Stats().Resets == 0 {
		t.Fatal("chaos run saw no resets — the test proved nothing")
	}
	if counters.Reconnects.Load() == 0 {
		t.Fatal("client never reconnected under resets")
	}
}
