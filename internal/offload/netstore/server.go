// Package netstore is the server side of the networked activation
// store: a TCP/unix-socket service that N training or inference client
// processes share concurrently. It speaks the length-prefixed wire
// protocol of internal/offload/transport (frame bytes plus a small op
// header) and shards entries across K in-memory backends by key hash. It
// never decodes a frame: the store is the serving boundary the ROADMAP's
// "one compressed-activation cache, heavy concurrent traffic" north star
// asks for.
//
// Responsibilities per connection are split across two goroutines: a
// reader that decodes requests and executes the (cheap, sharded) store
// operation, and a writer that streams responses back, decoupled by a
// queue bounded in bytes (inFlightBytes) — when a slow client stops
// draining responses, the reader stops reading and TCP backpressure does
// the rest.
//
// Integrity: PUT bodies are CRC-validated before they are stored (a
// frame damaged in flight is refused with StatusCorrupt and the client
// resends), and GET responses are re-validated client-side, so a bad
// link can delay traffic but never corrupt the store or a consumer.
package netstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jpegact/internal/frame"
	"jpegact/internal/offload/transport"
	"jpegact/internal/splitmix"
)

func newBufReader(c net.Conn) *bufio.Reader { return bufio.NewReaderSize(c, 64<<10) }
func newBufWriter(c net.Conn) *bufio.Writer { return bufio.NewWriterSize(c, 64<<10) }

// Config sizes the server.
type Config struct {
	// Shards is the number of independent in-memory store backends keys
	// are hashed across (<= 0 uses DefaultShards). More shards means
	// less lock contention between concurrent clients.
	Shards int
	// respDelay, when positive, injects a fixed service latency into
	// every response: the due time is stamped when the request is
	// *executed*, and the connection's writer holds each response until
	// its due time passes. Pipelined requests therefore overlap their
	// delays (k requests in flight cost ~one delay), while a
	// stop-and-wait client pays the delay once per op — the round-trip
	// structure this package's pipelining test measures without a real
	// network. No program sets it.
	respDelay time.Duration
	// Logf, when set, receives connection-lifecycle and error lines.
	Logf func(format string, args ...any)
}

// DefaultShards is the shard count when Config leaves it zero.
const DefaultShards = 4

// inFlightBytes bounds the response bytes queued to any one
// connection's writer. The head response is always admitted so one
// oversized frame cannot deadlock a connection.
const inFlightBytes = 4 << 20

// shard is one independent backend: a mutex-guarded key→frame-bytes map.
type shard struct {
	mu      sync.Mutex
	entries map[uint64][]byte
	bytes   int64
}

// Server is the sharded activation-store service.
type Server struct {
	cfg      Config
	shards   []*shard
	counters transport.Counters

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
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	s := &Server{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		listeners: map[net.Listener]struct{}{},
		open:      map[net.Conn]struct{}{},
	}
	for i := range s.shards {
		s.shards[i] = &shard{entries: map[uint64][]byte{}}
	}
	return s
}

// shardOf returns the one shard that holds key. Keys are small
// sequence numbers with a per-client base in the high bits, so the
// shared splitmix mixer spreads them: without it, consecutive keys from
// one client would land on neighbouring shards in lockstep. Every shard
// lives and dies with this process, so one copy is all there is: a
// frame KillShard wipes is gone, and the client's GET reports
// transport.ErrNotFound for its recovery policy to handle.
func (s *Server) shardOf(key uint64) *shard {
	return s.shards[splitmix.Mix(key)%uint64(len(s.shards))]
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
		// Wake the reader without touching writes: queued responses
		// still stream out, only the next ReadRequest fails fast.
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

// handleRequest executes one decoded request against the sharded store
// and returns the response. It performs no I/O — the fuzz target drives
// it directly with arbitrary decoded requests.
func (s *Server) handleRequest(req transport.Request) (status uint8, body []byte) {
	switch req.Op {
	case transport.OpPut:
		// Validate before storing: the frame is self-describing and
		// CRC'd, so damage in flight is refused here and the client
		// resends. Only verified bytes ever become store state.
		if _, err := frame.DecodeFrame(req.Body); err != nil {
			s.counters.Corrupted.Add(1)
			return transport.StatusCorrupt, nil
		}
		sh := s.shardOf(req.Key)
		sh.mu.Lock()
		if old, ok := sh.entries[req.Key]; ok {
			sh.bytes -= int64(len(old))
		}
		sh.entries[req.Key] = req.Body
		sh.bytes += int64(len(req.Body))
		sh.mu.Unlock()
		s.counters.Offloaded.Add(1)
		s.counters.BytesOffloaded.Add(int64(len(req.Body)))
		if transport.IsGradKey(req.Key) {
			s.counters.GradPuts.Add(1)
			s.counters.BytesGrad.Add(int64(len(req.Body)))
		}
		return transport.StatusOK, nil

	case transport.OpGet, transport.OpGetCoef:
		sh := s.shardOf(req.Key)
		sh.mu.Lock()
		b, ok := sh.entries[req.Key]
		sh.mu.Unlock()
		if !ok {
			return transport.StatusNotFound, nil
		}
		s.counters.Restored.Add(1)
		s.counters.BytesVerified.Add(int64(len(b)))
		if transport.IsGradKey(req.Key) {
			s.counters.GradGets.Add(1)
			s.counters.BytesGrad.Add(int64(len(b)))
		}
		return transport.StatusOK, b

	case transport.OpDelete:
		sh := s.shardOf(req.Key)
		sh.mu.Lock()
		b, found := sh.entries[req.Key]
		if found {
			delete(sh.entries, req.Key)
			sh.bytes -= int64(len(b))
		}
		sh.mu.Unlock()
		if !found {
			return transport.StatusNotFound, nil
		}
		return transport.StatusOK, nil

	case transport.OpStats:
		js, err := json.Marshal(s.Snapshot())
		if err != nil {
			return transport.StatusBadRequest, nil
		}
		return transport.StatusOK, js
	}
	s.badReqs.Add(1)
	return transport.StatusBadRequest, nil
}

// response is one writer-queue element.
type response struct {
	status uint8
	body   []byte
	due    time.Time // earliest write time (respDelay injection)
}

// handleConn runs one connection: the calling goroutine reads and
// executes requests, a second goroutine writes responses. The queue
// between them is bounded by the inFlightBytes budget — when the writer
// falls behind (slow client, big frames), the reader blocks before
// decoding the next request, which stops the TCP window and pushes the
// backpressure all the way to the producer.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	out := make(chan response, 128)
	var qmu sync.Mutex
	qcond := sync.NewCond(&qmu)
	queued := 0

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bw := newBufWriter(conn)
		for resp := range out {
			if !resp.due.IsZero() {
				if d := time.Until(resp.due); d > 0 {
					// Flush what's already written before holding the
					// next response, so earlier replies are not pinned
					// behind this one's delay.
					bw.Flush()
					time.Sleep(d)
				}
			}
			err := transport.WriteResponse(bw, resp.status, resp.body)
			if err == nil && len(out) == 0 {
				err = bw.Flush()
			}
			qmu.Lock()
			queued -= len(resp.body)
			qcond.Broadcast()
			qmu.Unlock()
			if err != nil {
				// The connection is gone; drain the queue so the reader
				// never blocks on a dead writer, then bail.
				conn.Close()
				for resp := range out {
					qmu.Lock()
					queued -= len(resp.body)
					qcond.Broadcast()
					qmu.Unlock()
					_ = resp
				}
				return
			}
		}
		bw.Flush()
	}()

	br := newBufReader(conn)
	for {
		req, err := transport.ReadRequest(br)
		if err != nil {
			if s.drainingNow() && isTimeout(err) {
				// Shutdown woke us between requests: stop reading cleanly
				// so close(out) lets the writer flush what's queued.
				break
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				if errors.Is(err, transport.ErrWire) {
					// The stream is poisoned — answer once, then drop the
					// connection; the client's reconnect+resend recovers.
					s.badReqs.Add(1)
					s.enqueue(out, &qmu, qcond, &queued, response{status: transport.StatusBadRequest})
					s.logf("netstore: %s: %v (closing)", conn.RemoteAddr(), err)
				} else {
					s.logf("netstore: %s: read: %v", conn.RemoteAddr(), err)
				}
			}
			break
		}
		status, body := s.handleRequest(req)
		resp := response{status: status, body: body}
		if s.cfg.respDelay > 0 {
			resp.due = time.Now().Add(s.cfg.respDelay)
		}
		s.enqueue(out, &qmu, qcond, &queued, resp)
	}
	close(out)
	wg.Wait()
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

// KillShard wipes every entry in shard i and returns how many frames it
// dropped — the chaos harness's lever for losing data while the process
// lives. The frames are gone: their GETs answer StatusNotFound, and the
// client's recovery policy (recompute, in training) rebuilds them.
func (s *Server) KillShard(i int) int {
	if i < 0 || i >= len(s.shards) {
		return 0
	}
	sh := s.shards[i]
	sh.mu.Lock()
	n := len(sh.entries)
	sh.entries = map[uint64][]byte{}
	sh.bytes = 0
	sh.mu.Unlock()
	return n
}

// enqueue admits one response to the writer queue under the byte
// budget. The head response is always admitted (progress guarantee).
func (s *Server) enqueue(out chan response, qmu *sync.Mutex, qcond *sync.Cond, queued *int, resp response) {
	n := len(resp.body)
	qmu.Lock()
	for *queued > 0 && *queued+n > inFlightBytes {
		qcond.Wait()
	}
	*queued += n
	qmu.Unlock()
	out <- resp
}

// Snapshot returns the unified counter snapshot — the same struct the
// offload store's Stats() and the wire STATS op report.
func (s *Server) Snapshot() transport.Snapshot {
	return s.counters.Snapshot()
}

// Entries returns the number of resident entries across all shards.
func (s *Server) Entries() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// HostBytes returns the total framed footprint resident across shards.
func (s *Server) HostBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
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
		fmt.Fprintf(w, "# HELP jpegact_actstore_shards Configured shard count\n# TYPE jpegact_actstore_shards gauge\njpegact_actstore_shards %d\n", len(s.shards))
	})
}
