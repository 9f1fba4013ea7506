package netstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// startServer brings up a server on a unix socket in a test temp dir and
// returns it with a dialer for clients.
func startServer(t testing.TB, cfg Config) (*Server, transport.Dialer) {
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

func testFrame(t testing.TB, fill byte) []byte {
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
	if st := srv.Snapshot(); st.Offloaded != 1 || st.Restored != 2 {
		t.Fatalf("server stats %+v", st)
	}
	if got := srv.Entries(); got != 0 {
		t.Fatalf("%d entries resident after delete", got)
	}
}

// TestServerCountsEntriesAndBytes: Entries and HostBytes track every
// resident frame under the key shape the offload store produces.
func TestServerCountsEntriesAndBytes(t *testing.T) {
	srv, dial := startServer(t, Config{})
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

// megFrame is a valid frame carrying 1 MiB of fill: far more than a
// socket buffers, so a reply carrying it stalls in the server's write
// until the client reads it.
func megFrame(t testing.TB, fill byte) []byte {
	t.Helper()
	return frame.EncodeFrame(&frame.Frame{
		Codec:   frame.CodecZVC,
		Shape:   tensor.Shape{N: 1, C: 1, H: 512, W: 512},
		Scales:  []float32{1},
		Payload: bytes.Repeat([]byte{fill}, 1<<20),
	})
}

// roundTrip writes one request on conn and reads its reply.
func roundTrip(t *testing.T, conn net.Conn, op uint8, key uint64, body []byte) {
	t.Helper()
	if err := transport.WriteRequest(conn, op, key, body); err != nil {
		t.Fatal(err)
	}
	if status, _, err := transport.ReadResponse(conn); err != nil || status != transport.StatusOK {
		t.Fatalf("op %d key %d: status %d, %v", op, key, status, err)
	}
}

// TestQueuedGetSurvivesDeleteAndReuse: a GET reply the server is still
// writing holds its entry's buffer. Connection a reads only the reply's
// header, so the write of its 1 MiB body stalls; connection b then
// DELETEs the key and PUTs other bytes of the same length — the PUT would
// read into the freed buffer if the DELETE had recycled it — and a's
// body must still carry the first PUT's bytes.
func TestQueuedGetSurvivesDeleteAndReuse(t *testing.T) {
	_, dial := startServer(t, Config{})
	var conns [2]net.Conn
	for i := range conns {
		c, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	a, b := conns[0], conns[1]
	first, second := megFrame(t, 1), megFrame(t, 2)
	roundTrip(t, a, transport.OpPut, 9, first)
	if err := transport.WriteRequest(a, transport.OpGet, 9, nil); err != nil {
		t.Fatal(err)
	}
	var h [8]byte // the response header
	if _, err := io.ReadFull(a, h[:]); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, b, transport.OpDelete, 9, nil)
	roundTrip(t, b, transport.OpPut, 9, second)
	status, body, err := transport.ReadResponse(io.MultiReader(bytes.NewReader(h[:]), a))
	if err != nil || status != transport.StatusOK {
		t.Fatalf("get reply: status %d, %v", status, err)
	}
	if !bytes.Equal(body, first) {
		t.Fatal("the GET reply carried bytes a later PUT wrote into its freed buffer")
	}
}

// TestStalledReaderStallsOnlyItsConnection: a connection that pipelines
// GETs of a 1 MiB frame and never reads the replies stalls the server's
// writes to it, and only those: a client beside it still completes every
// op, and Close still cuts the stalled connection.
func TestStalledReaderStallsOnlyItsConnection(t *testing.T) {
	srv, dial := startServer(t, Config{})
	c := transport.NewNetClient(dial, nil)
	c.OpTimeout = 5 * time.Second
	defer c.Close()
	r := transport.Retry{Attempts: 2}
	if _, err := c.Put(1, megFrame(t, 1), r); err != nil {
		t.Fatal(err)
	}
	stalled, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	var reqs bytes.Buffer
	for range 16 {
		transport.WriteRequest(&reqs, transport.OpGet, 1, nil)
	}
	if _, err := stalled.Write(reqs.Bytes()); err != nil {
		t.Fatal(err)
	}
	for k := uint64(2); k <= 9; k++ {
		buf := testFrame(t, byte(k))
		if _, err := c.Put(k, buf, r); err != nil {
			t.Fatalf("put %d beside a stalled connection: %v", k, err)
		}
		f, err := c.Get(k, r, false)
		if err != nil || f.Payload[0] != byte(k) {
			t.Fatalf("get %d beside a stalled connection: %v", k, err)
		}
		if err := c.Delete(k); err != nil {
			t.Fatalf("delete %d beside a stalled connection: %v", k, err)
		}
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a connection's write stalled")
	}
}

// TestFreeListBounds: a PUT of n bytes reuses the smallest free buffer
// of capacity n to n+n/4, never a smaller or a much larger one, and the
// list drops its oldest buffers past freeListBytes or maxFree.
func TestFreeListBounds(t *testing.T) {
	var l freeList
	small, fit, big := make([]byte, 900), make([]byte, 1200), make([]byte, 1100)
	for _, b := range [][]byte{small, fit, big} {
		l.put(b)
	}
	if got := l.get(1000); &got[0] != &big[0] || len(got) != 1000 {
		t.Fatalf("get(1000) did not return the 1100-byte buffer")
	}
	if got := l.get(4000); &got[0] == &fit[0] || &got[0] == &small[0] {
		t.Fatalf("get(4000) reused a buffer it cannot hold")
	}
	if got := l.get(600); &got[0] == &fit[0] || &got[0] == &small[0] {
		t.Fatalf("get(600) reused a buffer that wastes more than a quarter")
	}
	for range 2 * maxFree {
		l.put(make([]byte, 100))
	}
	if len(l.bufs) != maxFree || &l.bufs[0][0] == &small[0] {
		t.Fatalf("%d buffers after %d puts, bound %d; oldest kept: %v", len(l.bufs), 2*maxFree+2, maxFree, &l.bufs[0][0] == &small[0])
	}
	for range 5 {
		l.put(make([]byte, 1<<20))
	}
	if l.bytes > freeListBytes || len(l.bufs) != freeListBytes>>20 {
		t.Fatalf("%d bytes in %d buffers after five 1 MiB puts, bound %d", l.bytes, len(l.bufs), freeListBytes)
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
	srv, dial := startServer(t, Config{})
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
	srv, dial := startServer(t, Config{})
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
		"# TYPE jpegact_actstore_offloaded_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// BenchmarkStoreRoundTrip plays store_mixed's offload life cycle with one
// client at the default window (8) against a server on a unix socket:
// PutAsync every frame, GetAsync them in reverse and compare, Delete
// them all. The frames are JPEG-ACT activation frames, conv and ReLU, at
// the bench model's first three stage shapes (batch 8); B/s counts the
// frame bytes put and got.
func BenchmarkStoreRoundTrip(b *testing.B) {
	p := codec.New(quant.OptL())
	r := tensor.NewRNG(1)
	var frames [][]byte
	var want []*frame.Frame
	total := 0
	for _, sh := range [][3]int{{16, 32, 32}, {32, 16, 16}, {64, 8, 8}} {
		for _, kind := range []compress.Kind{compress.KindConv, compress.KindReLUToConv} {
			enc, err := p.Encode(kind, data.ActivationTensor(r, 8, sh[0], sh[1], sh[2], 0.5, 1.0))
			if err != nil {
				b.Fatal(err)
			}
			frames = append(frames, frame.EncodeFrame(enc.Frame))
			want = append(want, enc.Frame)
			total += len(frames[len(frames)-1])
		}
	}
	_, dial := startServer(b, Config{})
	c := transport.NewNetClient(dial, nil)
	defer c.Close()
	retry := transport.Retry{Attempts: 2}
	puts := make([]*transport.Pending, len(frames))
	gets := make([]*transport.Pending, len(frames))
	b.SetBytes(int64(2 * total))
	b.ResetTimer()
	for range b.N {
		for i, f := range frames {
			puts[i] = c.PutAsync(uint64(i), f, retry)
		}
		for i := len(frames) - 1; i >= 0; i-- {
			gets[i] = c.GetAsync(uint64(i), retry, false)
		}
		for i := range frames {
			if _, err := puts[i].PutResult(); err != nil {
				b.Fatal(err)
			}
			f, err := gets[i].GetResult()
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(f.Payload, want[i].Payload) {
				b.Fatalf("frame %d: GET returned other bytes than were PUT", i)
			}
		}
		for i := range frames {
			if err := c.Delete(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
