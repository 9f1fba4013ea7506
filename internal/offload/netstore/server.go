// Package netstore is the server side of the networked activation
// store: a TCP/unix-socket service that N training or inference client
// processes share concurrently. It speaks the length-prefixed wire
// protocol of internal/offload/transport (frame bytes plus a small op
// header) and keeps every entry in one mutex-guarded in-memory map. It
// never decodes a frame: the store is the serving boundary the ROADMAP's
// "one compressed-activation cache, heavy concurrent traffic" north star
// asks for.
//
// Each connection runs on one goroutine: it reads a request, executes
// the (cheap) map operation and writes the response, header
// and body in one vectored write, before it reads the next. A client
// that stops draining responses stalls that write, so the server stops
// reading it and TCP backpressure does the rest; other connections are
// not held up.
//
// Integrity: PUT bodies are CRC-validated before they are stored (a
// frame damaged in flight is refused with StatusCorrupt and the client
// resends), and GET responses are re-validated client-side, so a bad
// link can delay traffic but never corrupt the store or a consumer.
//
// Buffers: the server owns every PUT body. The connection draws it
// from the server's one free list, and a stored frame keeps it as an
// entry whose reference count is one for the map plus one per GET
// reply carrying it: the connection holds its reply's reference until
// the write returns, so a DELETE, overwrite or Lose from another
// connection behind a slow write cannot hand the bytes to the next PUT
// while they are still going out. The last holder returns the buffer to
// the free list, which keeps at most freeListBytes and drops the oldest
// past that.
package netstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jpegact/internal/frame"
	"jpegact/internal/offload/transport"
)

// Config sets up the server.
type Config struct {
	// Logf, when set, receives connection-lifecycle and error lines.
	Logf func(format string, args ...any)
}

// freeListBytes bounds the capacity of the PUT body buffers the free
// list keeps. An offload life cycle frees about one step's frames at a
// time (0.9 MB a client on the bench model), so this covers two clients
// with room for frame sizes that drift from step to step. maxFree caps
// the count as well, so a flood of tiny frames cannot make each PUT's
// best-fit scan long.
const (
	freeListBytes = 4 << 20
	maxFree       = 256
)

// entry is one stored frame. refs counts its holders: the map while
// the key maps to it, plus one per GET reply being written whose body is b.
// Whoever drops the last one hands b to the free list (Server.release).
type entry struct {
	b    []byte
	refs atomic.Int32
}

// freeList is the server's pool of PUT body buffers, oldest first,
// bounded to freeListBytes of capacity and maxFree buffers.
type freeList struct {
	mu    sync.Mutex
	bufs  [][]byte
	bytes int
}

// get returns a length-n buffer for a PUT body: the smallest free one
// that wastes at most a quarter of n, else a new one. Its stale contents
// do not matter: ReadRequest overwrites all n bytes.
func (l *freeList) get(n int) []byte {
	l.mu.Lock()
	best := -1
	for i, b := range l.bufs {
		if c := cap(b); c >= n && c-n <= n/4 && (best < 0 || c < cap(l.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		l.mu.Unlock()
		return make([]byte, n)
	}
	b := l.bufs[best]
	l.bufs = slices.Delete(l.bufs, best, best+1)
	l.bytes -= cap(b)
	l.mu.Unlock()
	return b[:n]
}

// put takes back a buffer nothing references any more, dropping the
// oldest ones to the collector past either bound.
func (l *freeList) put(b []byte) {
	if cap(b) == 0 || cap(b) > freeListBytes {
		return
	}
	l.mu.Lock()
	l.bufs = append(l.bufs, b)
	l.bytes += cap(b)
	for l.bytes > freeListBytes || len(l.bufs) > maxFree {
		l.bytes -= cap(l.bufs[0])
		l.bufs = slices.Delete(l.bufs, 0, 1)
	}
	l.mu.Unlock()
}

// Server is the activation-store service.
type Server struct {
	cfg      Config
	free     freeList
	counters transport.Counters

	// storeMu guards entries, the key→frame map, and bytes, the framed
	// bytes resident in it. Every entry lives and dies with this process,
	// so one copy is all there is: a frame Lose wipes is gone, and the
	// client's GET reports transport.ErrNotFound for its recovery policy
	// to handle.
	storeMu sync.Mutex
	entries map[uint64]*entry
	bytes   int64

	conns   atomic.Int64  // currently open connections
	accepts atomic.Uint64 // connections accepted over the lifetime
	badReqs atomic.Uint64 // requests refused with StatusBadRequest

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	open      map[net.Conn]struct{}
	closed    bool
	draining  bool
	wg        sync.WaitGroup
}

// New builds a server.
func New(cfg Config) *Server {
	return &Server{
		cfg:       cfg,
		entries:   map[uint64]*entry{},
		listeners: map[net.Listener]struct{}{},
		open:      map[net.Conn]struct{}{},
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Listen opens a listener for an address in transport.ParseAddr syntax
// ("unix:/path" or "tcp:host:port") and registers it for Close.
func (s *Server) Listen(addr string) (net.Listener, error) {
	network, address, err := transport.ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen(network, address)
	if err != nil && network == "unix" && errors.Is(err, syscall.EADDRINUSE) {
		// A previous server killed with SIGKILL leaves its socket file
		// behind. If nobody answers a probe dial, the socket is stale:
		// unlink it and bind again — required for restart-in-place under
		// the chaos harness and CI's kill -9 smoke.
		if probe, perr := net.DialTimeout(network, address, 250*time.Millisecond); perr != nil {
			if rmErr := os.Remove(address); rmErr == nil {
				ln, err = net.Listen(network, address)
			}
		} else {
			probe.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("netstore: server closed")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	return ln, nil
}

// Serve accepts connections on ln until the listener fails or the
// server is closed (which returns nil).
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.open[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepts.Add(1)
		s.conns.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.open, conn)
				s.mu.Unlock()
				s.conns.Add(-1)
				s.wg.Done()
			}()
			s.handleConn(conn)
		}()
	}
}

// Shutdown drains the server gracefully: new connections are refused
// immediately, but every request already read gets its response flushed
// before the connection closes. Readers blocked waiting for the next
// request are woken with an immediate read deadline, which the drain
// path treats as a clean end-of-stream rather than an error — so an
// in-flight PUT or GET either completes normally or the client sees a
// plain connection close (a resendable wire error), never a torn
// response. After grace expires any straggler connections are cut hard
// via Close.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for ln := range s.listeners {
		ln.Close()
	}
	for conn := range s.open {
		// Wake the reader without touching writes: a response being
		// written still goes out, only the next ReadRequest fails fast.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var late error
	select {
	case <-done:
	case <-time.After(grace):
		late = errors.New("netstore: shutdown grace expired with connections still open")
	}
	s.Close()
	return late
}

// Close stops the listeners, closes every live connection and waits for
// the connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	for conn := range s.open {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// handleRequest executes one decoded request against the store
// and returns the response. It performs no I/O — the fuzz target drives
// it directly with arbitrary decoded requests. It takes ownership of a
// PUT body; a GET hit's response holds a reference to its entry, which
// the caller drops with release once the body is written.
func (s *Server) handleRequest(req transport.Request) response {
	switch req.Op {
	case transport.OpPut:
		// Validate before storing: the frame is self-describing and
		// CRC'd, so damage in flight is refused here and the client
		// resends. Only verified bytes ever become store state.
		if _, err := frame.DecodeFrame(req.Body); err != nil {
			s.counters.Corrupted.Add(1)
			s.free.put(req.Body)
			return response{status: transport.StatusCorrupt}
		}
		e := &entry{b: req.Body}
		e.refs.Store(1)
		s.storeMu.Lock()
		old := s.entries[req.Key]
		if old != nil {
			s.bytes -= int64(len(old.b))
		}
		s.entries[req.Key] = e
		s.bytes += int64(len(req.Body))
		s.storeMu.Unlock()
		s.release(old)
		s.counters.Offloaded.Add(1)
		s.counters.BytesOffloaded.Add(int64(len(req.Body)))
		if transport.IsGradKey(req.Key) {
			s.counters.GradPuts.Add(1)
			s.counters.BytesGrad.Add(int64(len(req.Body)))
		}
		return response{status: transport.StatusOK}

	case transport.OpGet, transport.OpGetCoef:
		s.storeMu.Lock()
		e := s.entries[req.Key]
		if e != nil {
			// Taken under the store lock, while the map's reference
			// still keeps the count above zero.
			e.refs.Add(1)
		}
		s.storeMu.Unlock()
		if e == nil {
			return response{status: transport.StatusNotFound}
		}
		s.counters.Restored.Add(1)
		s.counters.BytesVerified.Add(int64(len(e.b)))
		if transport.IsGradKey(req.Key) {
			s.counters.GradGets.Add(1)
			s.counters.BytesGrad.Add(int64(len(e.b)))
		}
		return response{status: transport.StatusOK, body: e.b, held: e}

	case transport.OpDelete:
		s.storeMu.Lock()
		e := s.entries[req.Key]
		if e != nil {
			delete(s.entries, req.Key)
			s.bytes -= int64(len(e.b))
		}
		s.storeMu.Unlock()
		if e == nil {
			return response{status: transport.StatusNotFound}
		}
		s.release(e)
		return response{status: transport.StatusOK}
	}
	s.badReqs.Add(1)
	return response{status: transport.StatusBadRequest}
}

// release drops one reference to e (nil is none); the last one returns
// its buffer to the free list.
func (s *Server) release(e *entry) {
	if e != nil && e.refs.Add(-1) == 0 {
		s.free.put(e.b)
	}
}

// response is what handleRequest answers.
type response struct {
	status uint8
	body   []byte
	held   *entry // the entry body belongs to, released after the write
}

// handleConn runs one connection: read a request, execute it, write its
// response, then read the next. While a write is stalled (slow client,
// big frames) nothing more is read from the connection, which stops the
// TCP window and pushes the backpressure all the way to the producer.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		req, err := transport.ReadRequest(br, s.free.get)
		if err != nil {
			if s.drainingNow() && isTimeout(err) {
				// Shutdown woke us between requests: every request read
				// so far has been answered.
				return
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				if errors.Is(err, transport.ErrWire) {
					// The stream is poisoned — answer once, then drop the
					// connection; the client's reconnect+resend recovers.
					s.badReqs.Add(1)
					transport.WriteResponse(conn, transport.StatusBadRequest, nil)
					s.logf("netstore: %s: %v (closing)", conn.RemoteAddr(), err)
				} else {
					s.logf("netstore: %s: read: %v", conn.RemoteAddr(), err)
				}
			}
			return
		}
		resp := s.handleRequest(req)
		err = transport.WriteResponse(conn, resp.status, resp.body)
		s.release(resp.held)
		if err != nil {
			return
		}
	}
}

func (s *Server) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// isTimeout reports whether err is a network timeout (the deadline poke
// Shutdown uses to wake blocked readers).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Lose wipes every entry whose key lost reports and returns how many
// frames it dropped — the chaos harness's lever for losing data while
// the process lives. The frames are gone: their GETs answer
// StatusNotFound, and the client's recovery policy (recompute, in
// training) replays the step that lost them. A reply already being
// written still goes out whole.
func (s *Server) Lose(lost func(key uint64) bool) int {
	var gone []*entry
	s.storeMu.Lock()
	for k, e := range s.entries {
		if lost(k) {
			delete(s.entries, k)
			s.bytes -= int64(len(e.b))
			gone = append(gone, e)
		}
	}
	s.storeMu.Unlock()
	for _, e := range gone {
		s.release(e)
	}
	return len(gone)
}

// Snapshot returns the unified counter snapshot — the same struct the
// offload store's Stats() reports and /metrics renders.
func (s *Server) Snapshot() transport.Snapshot {
	return s.counters.Snapshot()
}

// Entries returns the number of resident entries.
func (s *Server) Entries() int {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	return len(s.entries)
}

// HostBytes returns the framed footprint resident in the store.
func (s *Server) HostBytes() int64 {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	return s.bytes
}

// MetricsHandler serves the unified snapshot in Prometheus text
// exposition format, plus server-level gauges (connections, entries,
// resident bytes, bad requests) — mount it on /metrics.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.Snapshot().WriteMetrics(w, "jpegact_actstore")
		fmt.Fprintf(w, "# HELP jpegact_actstore_connections Currently open client connections\n# TYPE jpegact_actstore_connections gauge\njpegact_actstore_connections %d\n", s.conns.Load())
		fmt.Fprintf(w, "# HELP jpegact_actstore_accepts_total Connections accepted\n# TYPE jpegact_actstore_accepts_total counter\njpegact_actstore_accepts_total %d\n", s.accepts.Load())
		fmt.Fprintf(w, "# HELP jpegact_actstore_entries Resident activation entries\n# TYPE jpegact_actstore_entries gauge\njpegact_actstore_entries %d\n", s.Entries())
		fmt.Fprintf(w, "# HELP jpegact_actstore_resident_bytes Resident framed bytes\n# TYPE jpegact_actstore_resident_bytes gauge\njpegact_actstore_resident_bytes %d\n", s.HostBytes())
		fmt.Fprintf(w, "# HELP jpegact_actstore_bad_requests_total Requests refused as malformed\n# TYPE jpegact_actstore_bad_requests_total counter\njpegact_actstore_bad_requests_total %d\n", s.badReqs.Load())
	})
}
