package netstore

import (
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"jpegact/internal/frame"
	"jpegact/internal/offload/transport"
	"jpegact/internal/tensor"
)

// startServer brings up a server on a unix socket in a test temp dir and
// returns it with a dialer for clients.
func startServer(t *testing.T, cfg Config) (*Server, transport.Dialer) {
	t.Helper()
	srv := New(cfg)
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

func testFrame(t *testing.T, fill byte) []byte {
	t.Helper()
	f := &frame.Frame{
		Codec:   frame.CodecZVC,
		Shape:   tensor.Shape{N: 1, C: 1, H: 2, W: 2},
		Scales:  []float32{1},
		Payload: []byte{fill, fill, fill, fill},
	}
	return frame.EncodeFrame(f)
}

func TestServerRoundTrips(t *testing.T) {
	srv, dial := startServer(t, Config{})
	c := transport.NewNetClient(dial, nil)
	defer c.Close()

	buf := testFrame(t, 7)
	if n, err := c.Put(42, buf, transport.Retry{}); err != nil || n != len(buf) {
		t.Fatalf("put: n=%d err=%v", n, err)
	}
	f, err := c.Get(42, transport.Retry{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.Codec != frame.CodecZVC || len(f.Payload) != 4 || f.Payload[0] != 7 {
		t.Fatalf("frame %+v", f)
	}
	// OpGetCoef is served as a plain GET.
	if _, err := c.Get(42, transport.Retry{}, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(42); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(42, transport.Retry{}, false); !errors.Is(err, transport.ErrNotFound) {
		t.Fatalf("want ErrNotFound after delete, got %v", err)
	}
	// Deleting again is tolerated (NotFound maps to success).
	if err := c.Delete(42); err != nil {
		t.Fatal(err)
	}
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Offloaded != 1 || st.Restored != 2 {
		t.Fatalf("server stats %+v", st)
	}
	if got := srv.Entries(); got != 0 {
		t.Fatalf("%d entries resident after delete", got)
	}
}

func TestServerShardsBalance(t *testing.T) {
	srv, dial := startServer(t, Config{Shards: 4})
	c := transport.NewNetClient(dial, nil)
	defer c.Close()
	buf := testFrame(t, 1)
	const n = 64
	for i := 0; i < n; i++ {
		// Sequence-number keys with a client base in the high bits — the
		// exact key shape the offload store produces.
		key := uint64(3)<<32 | uint64(i)
		if _, err := c.Put(key, buf, transport.Retry{}); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Entries() != n {
		t.Fatalf("%d entries, want %d", srv.Entries(), n)
	}
	for i, cnt := range srv.ShardEntries() {
		if cnt == 0 {
			t.Fatalf("shard %d empty: %v — key mixing is not spreading sequential keys", i, srv.ShardEntries())
		}
	}
	if srv.HostBytes() != int64(n*len(buf)) {
		t.Fatalf("resident bytes %d, want %d", srv.HostBytes(), n*len(buf))
	}
}

// cutConn closes the connection after writing half of the first frame —
// a connection drop mid-frame.
type cutConn struct {
	net.Conn
	remaining int
}

func (c *cutConn) Write(b []byte) (int, error) {
	if c.remaining <= 0 {
		c.Conn.Close()
		return 0, fmt.Errorf("connection reset mid-frame")
	}
	if len(b) > c.remaining {
		n, _ := c.Conn.Write(b[:c.remaining])
		c.remaining = 0
		c.Conn.Close()
		return n, fmt.Errorf("connection reset mid-frame")
	}
	c.remaining -= len(b)
	return c.Conn.Write(b)
}

func TestConnectionDropMidFrameRecoversByReconnect(t *testing.T) {
	_, dial := startServer(t, Config{})
	buf := testFrame(t, 9)
	first := true
	var counters transport.Counters
	faulty := transport.Dialer(func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			// Die halfway through the first PUT's frame body.
			return &cutConn{Conn: conn, remaining: 16 + len(buf)/2}, nil
		}
		return conn, nil
	})
	c := transport.NewNetClient(faulty, &counters)
	defer c.Close()
	if _, err := c.Put(5, buf, transport.Retry{Attempts: 3}); err != nil {
		t.Fatalf("reconnect+resend should absorb a mid-frame drop: %v", err)
	}
	f, err := c.Get(5, transport.Retry{}, false)
	if err != nil || f.Payload[0] != 9 {
		t.Fatalf("get after recovery: %v %+v", err, f)
	}
	s := counters.Snapshot()
	if s.Reconnects != 1 || s.Retried != 1 || s.Corrupted != 1 {
		t.Fatalf("counters %+v", s)
	}
}

// flipConn corrupts one byte of the first frame body it carries.
type flipConn struct {
	net.Conn
	skip    int // bytes to pass through before the flip
	flipped bool
}

func (c *flipConn) Write(b []byte) (int, error) {
	if !c.flipped {
		if len(b) > c.skip {
			mut := append([]byte(nil), b...)
			mut[c.skip] ^= 0x40
			c.flipped = true
			return c.Conn.Write(mut)
		}
		c.skip -= len(b)
	}
	return c.Conn.Write(b)
}

func TestCorruptPayloadRefusedAndResent(t *testing.T) {
	srv, dial := startServer(t, Config{})
	buf := testFrame(t, 3)
	var counters transport.Counters
	once := true
	faulty := transport.Dialer(func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		if once {
			once = false
			// Flip a byte inside the frame payload (past the 16-byte op
			// header and the frame's own 36-byte header).
			return &flipConn{Conn: conn, skip: 16 + len(buf) - 2}, nil
		}
		return conn, nil
	})
	c := transport.NewNetClient(faulty, &counters)
	defer c.Close()
	if _, err := c.Put(8, buf, transport.Retry{Attempts: 2}); err != nil {
		t.Fatalf("resend should recover a CRC-corrupt payload: %v", err)
	}
	// The refused frame never became store state; the resent one did.
	if srv.Entries() != 1 {
		t.Fatalf("%d entries", srv.Entries())
	}
	if got := srv.Snapshot(); got.Corrupted != 1 {
		t.Fatalf("server should have counted the refused frame: %+v", got)
	}
	f, err := c.Get(8, transport.Retry{}, false)
	if err != nil || f.Payload[0] != 3 {
		t.Fatalf("get after resend: %v %+v", err, f)
	}
	s := counters.Snapshot()
	if s.Corrupted != 1 || s.Retried != 1 {
		t.Fatalf("client counters %+v", s)
	}
}

func TestTruncatedOpHeaderPoisonsConnection(t *testing.T) {
	_, dial := startServer(t, Config{})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half an op header, then half-close: the server must answer
	// StatusBadRequest and drop the connection, never hang or panic.
	if _, err := conn.Write([]byte{'J', 'Q', 1, 2, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	conn.(*net.UnixConn).CloseWrite()
	status, _, err := transport.ReadResponse(conn)
	if err != nil {
		t.Fatalf("want a BadRequest response before close, got %v", err)
	}
	if status != transport.StatusBadRequest {
		t.Fatalf("status %d", status)
	}
	// The stream is poisoned: the server closes after answering.
	if _, _, err := transport.ReadResponse(conn); !errors.Is(err, transport.ErrWire) {
		t.Fatalf("want closed connection, got %v", err)
	}
}

func TestConcurrentClientsDisjointKeySpaces(t *testing.T) {
	srv, dial := startServer(t, Config{Shards: 8})
	const clients, perClient = 4, 16
	errc := make(chan error, clients)
	for id := 0; id < clients; id++ {
		go func(id int) {
			c := transport.NewNetClient(dial, nil)
			defer c.Close()
			buf := testFrame(t, byte(id))
			base := uint64(id) << 32
			for i := 0; i < perClient; i++ {
				if _, err := c.Put(base|uint64(i), buf, transport.Retry{}); err != nil {
					errc <- err
					return
				}
			}
			for i := perClient - 1; i >= 0; i-- {
				f, err := c.Get(base|uint64(i), transport.Retry{}, false)
				if err != nil {
					errc <- err
					return
				}
				if f.Payload[0] != byte(id) {
					errc <- fmt.Errorf("client %d read another client's frame", id)
					return
				}
				if err := c.Delete(base | uint64(i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(id)
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if srv.Entries() != 0 {
		t.Fatalf("%d entries left resident", srv.Entries())
	}
	st := srv.Snapshot()
	if st.Offloaded != clients*perClient || st.Restored != clients*perClient {
		t.Fatalf("server stats %+v", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, dial := startServer(t, Config{Shards: 2})
	c := transport.NewNetClient(dial, nil)
	defer c.Close()
	buf := testFrame(t, 1)
	if _, err := c.Put(1, buf, transport.Retry{}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"jpegact_actstore_offloaded_total 1",
		fmt.Sprintf("jpegact_actstore_resident_bytes %d", len(buf)),
		"jpegact_actstore_entries 1",
		"jpegact_actstore_shards 2",
		"# TYPE jpegact_actstore_offloaded_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// ShardEntries returns per-shard entry counts (for balance checks).
func (s *Server) ShardEntries() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = len(sh.entries)
		sh.mu.Unlock()
	}
	return out
}
