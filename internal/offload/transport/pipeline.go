package transport

// The windowed wire client: how NetClient keeps several requests in
// flight on one connection.
//
// The wire protocol (wire.go) carries no request IDs — responses come
// back in request order — so a client may keep several requests in
// flight on one connection as long as it (a) writes them from a single
// goroutine, (b) matches responses to requests strictly FIFO, and
// (c) on any connection-level failure treats *every* in-flight request
// as lost, because a torn response desynchronizes the stream. The
// netstore server runs a reader and a writer goroutine per connection;
// this file is the client half.
//
// The window is this package's alone: NetClient.Window is the only such
// number in the tree, a zero-value client is pipelined at DefaultWindow,
// and the schedulers above (the offload engine's commit drain and
// prefetcher, the gradient exchange) size their issue/await FIFOs from
// what the transport reports through Transport.Depth — see FIFO.
//
// Machinery: submitted ops queue on the client; a pump goroutine
// streams requests onto the wire while at most Depth() ops are in
// flight, and a per-connection reader goroutine drains responses in
// order, completing the in-flight FIFO head each time. Any dial, write,
// read or wire failure *poisons* the connection: it is closed, every
// in-flight op is charged one failed attempt through its own Retry
// schedule (charge, the one rule a payload refusal is charged by too),
// and the survivors are resent in original submission order ahead of
// everything still queued — so the server observes the same logical op
// sequence a stop-and-wait client would, just denser. The sync
// Put/Get/Delete/ServerStats are the degenerate window-of-1 case:
// submit one op, wait for its handle.

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"jpegact/internal/frame"
)

// FIFO is the issue/await discipline every windowed scheduler shares: a
// queue of issued-but-unsettled operation tickets, as deep as the
// transport it was built over reports, settled strictly oldest first —
// the order the wire answers in. T is the caller's ticket (a handle plus
// whatever its settle step needs); settle waits for one ticket's result
// and consumes it.
//
// Once a settle fails, Reserve and Drain still settle every ticket
// queued behind it (discarding those results) before returning the
// first error, so no handle outlives the FIFO's owner. Not safe for
// concurrent use.
type FIFO[T any] struct {
	depth  int
	q      []T
	settle func(T) error
}

// NewFIFO builds an empty FIFO sized to t's depth.
func NewFIFO[T any](t Transport, settle func(T) error) *FIFO[T] {
	return &FIFO[T]{depth: t.Depth(), settle: settle}
}

// Len is the number of unsettled tickets.
func (f *FIFO[T]) Len() int { return len(f.q) }

// Full reports whether another issue must wait for a settle.
func (f *FIFO[T]) Full() bool { return len(f.q) >= f.depth }

// Push queues the ticket of an operation just issued.
func (f *FIFO[T]) Push(t T) { f.q = append(f.q, t) }

// Settle settles the oldest ticket.
func (f *FIFO[T]) Settle() error {
	t := f.q[0]
	f.q = f.q[1:]
	return f.settle(t)
}

// settleWhile settles oldest-first while more() holds; after a failure
// it drains the rest and returns the first error.
func (f *FIFO[T]) settleWhile(more func() bool) error {
	for more() {
		if err := f.Settle(); err != nil {
			for len(f.q) > 0 {
				_ = f.Settle() // the first error is the verdict
			}
			return err
		}
	}
	return nil
}

// Reserve settles the oldest tickets until one more operation may be
// issued.
func (f *FIFO[T]) Reserve() error { return f.settleWhile(f.Full) }

// Drain settles every queued ticket.
func (f *FIFO[T]) Drain() error { return f.settleWhile(func() bool { return len(f.q) > 0 }) }

// Pending is the completion handle of one transport op. It is created
// by PutAsync/GetAsync (and internally by the sync wrappers) and
// completed exactly once — by the wire client's machinery, or at birth
// by Resolved; callers wait on one of the typed result accessors.
type Pending struct {
	op   uint8
	key  uint64
	body []byte // request payload (PUT); retained for resends
	coef bool

	retry   Retry
	start   time.Time     // schedule wall budget anchor
	attempt int           // index of the try currently in flight
	backoff time.Duration // next backoff delay (doubles per retry)
	wait    time.Duration // sleep owed before the next send
	sentAt  time.Time     // when the current try hit the wire

	done   chan struct{}
	stored int          // PUT result
	f      *frame.Frame // GET result
	resp   []byte       // STATS body
	err    error
}

func newPending(op uint8, key uint64, body []byte, r Retry) *Pending {
	return &Pending{
		op: op, key: key, body: body, retry: r,
		start: time.Now(), backoff: r.Backoff,
		done: make(chan struct{}),
	}
}

// Resolved returns the handle of an op that completed at submit time —
// what a backend with no latency to hide answers with: stored is a PUT's
// landed byte count, f a GET's verified frame.
func Resolved(stored int, f *frame.Frame, err error) *Pending {
	p := &Pending{stored: stored, f: f, err: err, done: make(chan struct{})}
	close(p.done)
	return p
}

// complete resolves the handle. Must be called exactly once.
func (p *Pending) complete(err error) {
	p.err = err
	close(p.done)
}

// Err waits for completion and returns the op's terminal error.
func (p *Pending) Err() error {
	<-p.done
	return p.err
}

// PutResult waits for completion of a PUT and returns the stored byte
// count.
func (p *Pending) PutResult() (int, error) {
	<-p.done
	return p.stored, p.err
}

// GetResult waits for completion of a GET and returns the verified
// frame.
func (p *Pending) GetResult() (*frame.Frame, error) {
	<-p.done
	return p.f, p.err
}

// opName maps a wire op code onto the label retry errors carry.
func opName(op uint8) string {
	switch op {
	case OpPut:
		return "put"
	case OpGet, OpGetCoef:
		return "get"
	case OpDelete:
		return "delete"
	case OpStats:
		return "stats"
	}
	return fmt.Sprintf("op%d", op)
}

// DefaultWindow is the in-flight bound of a client whose Window is left
// zero: every wire client in the tree is pipelined at this one number
// unless it asks for stop-and-wait (Window = 1) by name.
const DefaultWindow = 8

// Depth implements Transport: the effective in-flight bound (>= 1).
func (c *NetClient) Depth() int {
	if c.Window > 0 {
		return c.Window
	}
	return DefaultWindow
}

// PutAsync implements Transport: the op joins the pipeline and its
// handle resolves when the server acknowledges the frame (with
// reconnect+resend on connection failures and a resend when the server
// reports the payload CRC-corrupt, exactly the sync Put schedule).
// Blocks while the window is full.
func (c *NetClient) PutAsync(key uint64, data []byte, r Retry) *Pending {
	return c.submit(newPending(OpPut, key, data, r))
}

// GetAsync implements Transport: the handle resolves with the
// CRC-verified frame, with the sync Get's retry and NotFound semantics.
// Blocks while the window is full.
func (c *NetClient) GetAsync(key uint64, r Retry, coef bool) *Pending {
	op := uint8(OpGet)
	if coef {
		op = OpGetCoef
	}
	p := newPending(op, key, nil, r)
	p.coef = coef
	return c.submit(p)
}

// submit enqueues p behind every earlier op, applying window
// backpressure: at most Depth() ops may be queued-or-in-flight, so a
// producer that outruns the wire blocks here rather than growing an
// unbounded buffer of retained PUT bodies.
func (c *NetClient) submit(p *Pending) *Pending {
	c.pmu.Lock()
	for len(c.queue)+len(c.inflight) >= c.Depth() && !c.closed {
		c.pcond.Wait()
	}
	if c.closed {
		// A Close raced the submit; reopen the pipeline (Close is a
		// quiesce, not a permanent seal — the sync client could always
		// be used again after Close).
		c.closed = false
	}
	c.queue = append(c.queue, p)
	if !c.pumping {
		c.pumping = true
		go c.pump()
	}
	c.pcond.Broadcast()
	c.pmu.Unlock()
	return p
}

// pump is the writer goroutine: it pops queued ops while the in-flight
// window has room, dials when no connection is live, and streams
// requests onto the wire. It parks on the cond when idle and exits on
// Close.
func (c *NetClient) pump() {
	for {
		c.pmu.Lock()
		for !c.closed && (len(c.queue) == 0 || len(c.inflight) >= c.Depth()) {
			c.pcond.Wait()
		}
		if c.closed {
			c.pumping = false
			c.pcond.Broadcast()
			c.pmu.Unlock()
			return
		}
		head := c.queue[0]
		if head.wait > 0 {
			// The backoff this op's schedule owes before its resend. Sleep
			// it off *before* the op enters the in-flight FIFO, so the
			// reader's per-attempt deadline does not start ticking against
			// a request that has not been written yet.
			owed := head.wait
			head.wait = 0
			c.pmu.Unlock()
			head.retry.sleep(owed)
			continue
		}
		if c.conn == nil {
			redial := c.needRedial
			timeout := c.effTimeout(head.retry.OpTimeout)
			c.pmu.Unlock()
			conn, err := dialConn(c.dial, timeout)
			c.pmu.Lock()
			if c.closed {
				if conn != nil {
					conn.Close()
				}
				c.pumping = false
				c.pcond.Broadcast()
				c.pmu.Unlock()
				return
			}
			if err != nil {
				// The dial served the head op; charge the failure to it
				// alone — nothing else was on this connection yet. Pop it
				// first: failLocked requeues survivors itself.
				if len(c.queue) > 0 && c.queue[0] == head {
					c.queue = c.queue[1:]
				}
				c.failLocked([]*Pending{head}, fmt.Errorf("transport: dial activation store: %w", err), true)
				c.pmu.Unlock()
				continue
			}
			if redial {
				c.counters.Reconnects.Add(1)
				c.needRedial = false
			}
			c.conn = conn
			c.br = bufio.NewReader(conn)
			c.bw = bufio.NewWriter(conn)
			c.epoch++
			go c.readLoop(c.epoch, conn, c.br)
		}
		// Move head into the in-flight FIFO before writing, so a torn
		// write is resent by the same poison path as a torn read.
		c.queue = c.queue[1:]
		c.inflight = append(c.inflight, head)
		conn, bw, epoch := c.conn, c.bw, c.epoch
		head.sentAt = time.Now()
		c.pcond.Broadcast()
		c.pmu.Unlock()

		if t := c.effTimeout(head.retry.OpTimeout); t > 0 {
			conn.SetWriteDeadline(time.Now().Add(t))
		} else {
			conn.SetWriteDeadline(time.Time{})
		}
		err := WriteRequest(bw, head.op, head.key, head.body)
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			c.pmu.Lock()
			c.poisonLocked(epoch, fmt.Errorf("transport: write %s %d: %w", opName(head.op), head.key, err))
			c.pmu.Unlock()
		}
	}
}

// readLoop is the reader goroutine of one connection epoch: it waits
// for ops to be in flight, reads responses in order and completes the
// FIFO head each time. It exits when the epoch is retired (poison or a
// fresh dial) or the client closes.
func (c *NetClient) readLoop(epoch uint64, conn net.Conn, br *bufio.Reader) {
	for {
		c.pmu.Lock()
		for c.epoch == epoch && !c.closed && len(c.inflight) == 0 {
			c.pcond.Wait()
		}
		if c.epoch != epoch || c.closed {
			c.pmu.Unlock()
			return
		}
		head := c.inflight[0]
		c.pmu.Unlock()

		if t := c.effTimeout(head.retry.OpTimeout); t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		} else {
			conn.SetReadDeadline(time.Time{})
		}

		status, body, err := ReadResponse(br)
		if c.settle(epoch, head, status, body, err) {
			return
		}
	}
}

// settle processes one response (or read error) for the in-flight head.
// It reports whether the epoch was retired and the read loop must exit.
func (c *NetClient) settle(epoch uint64, head *Pending, status uint8, body []byte, err error) bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.epoch != epoch {
		// Poisoned while the read was in flight: the op was already
		// requeued (or failed) by the poison pass; this response — if it
		// even is one — belongs to a retired stream.
		return true
	}
	if err != nil {
		c.poisonLocked(epoch, fmt.Errorf("transport: read %s %d: %w", opName(head.op), head.key, err))
		return true
	}
	c.inflight = c.inflight[1:]
	c.finishResponseLocked(head, status, body)
	c.pcond.Broadcast()
	return false
}

// finishResponseLocked applies one well-formed response to its op:
// terminal statuses complete the handle; a payload-level failure
// (server-reported CRC refusal on PUT, client-side CRC failure on GET)
// charges the op's retry schedule and requeues it at the very front.
// Called with pmu held.
func (c *NetClient) finishResponseLocked(p *Pending, status uint8, body []byte) {
	switch p.op {
	case OpPut:
		switch status {
		case StatusOK:
			p.stored = len(p.body)
			c.observe(p)
			p.complete(nil)
		case StatusCorrupt:
			// The server CRC-checked the frame and refused it: the bytes
			// were damaged in flight. The local copy is intact, so a
			// resend recovers.
			c.failLocked([]*Pending{p}, fmt.Errorf("transport: put %d: server rejected frame: %w", p.key, frame.ErrChecksum), false)
		default:
			p.complete(fmt.Errorf("transport: put %d: server status %d", p.key, status))
		}
	case OpGet, OpGetCoef:
		switch status {
		case StatusOK:
			f, err := frame.DecodeFrame(body)
			if err != nil {
				// Damaged in flight; the server's copy is CRC-intact, so a
				// re-read recovers.
				c.failLocked([]*Pending{p}, err, false)
				return
			}
			c.counters.BytesVerified.Add(int64(len(body)))
			p.f = f
			c.observe(p)
			p.complete(nil)
		case StatusNotFound:
			p.complete(fmt.Errorf("%w: %d", ErrNotFound, p.key))
		default:
			p.complete(fmt.Errorf("transport: get %d: server status %d", p.key, status))
		}
	case OpDelete:
		if status == StatusOK || status == StatusNotFound {
			c.observe(p)
			p.complete(nil)
			return
		}
		p.complete(fmt.Errorf("transport: delete %d: server status %d", p.key, status))
	case OpStats:
		if status != StatusOK {
			p.complete(fmt.Errorf("transport: stats: server status %d", status))
			return
		}
		p.resp = body
		c.observe(p)
		p.complete(nil)
	default:
		p.complete(fmt.Errorf("transport: %s %d: unknown op", opName(p.op), p.key))
	}
}

// observe fires the Latency hook for a successful exchange, measured
// from the moment the request hit the wire.
func (c *NetClient) observe(p *Pending) {
	if c.Latency != nil {
		c.Latency(p.op, time.Since(p.sentAt))
	}
}

// charge is the one rule a failed attempt is charged by, whatever lost
// it — a dial, a poisoned connection (connFail) or a payload the CRC
// refused: an exhausted schedule (attempts or Total wall budget)
// completes the handle, with the typed ErrStoreUnavailable verdict when
// the failure was connection-level; otherwise the attempt is counted, its
// backoff owed, and the op survives for the caller to requeue.
func (c *NetClient) charge(p *Pending, cause error, connFail bool) (survives bool) {
	c.counters.Corrupted.Add(1)
	if p.attempt >= p.retry.Attempts || budgetSpent(p.start, p.retry) {
		if connFail {
			cause = unavailable(opName(p.op), p.key, p.attempt+1, cause)
		}
		p.complete(cause)
		return false
	}
	p.attempt++
	c.counters.Retried.Add(1)
	if p.backoff > 0 {
		p.wait = p.backoff
		p.backoff *= 2
	}
	return true
}

// failLocked charges one failed attempt to each of ps and prepends the
// survivors to the queue *in their original submission order*, ahead of
// everything not yet sent, so the resend stream replays the exact op
// sequence the server would have seen. Called with pmu held.
func (c *NetClient) failLocked(ps []*Pending, cause error, connFail bool) {
	var keep []*Pending
	for _, p := range ps {
		if c.charge(p, cause, connFail) {
			keep = append(keep, p)
		}
	}
	if len(keep) > 0 {
		c.queue = append(keep, c.queue...)
	}
	c.pcond.Broadcast()
}

// poisonLocked retires the current connection epoch after a
// connection-level failure: the conn is closed, the reader epoch is
// invalidated, and every in-flight op fails one attempt. Called with
// pmu held; no-op if the epoch was already retired.
func (c *NetClient) poisonLocked(epoch uint64, cause error) {
	if c.epoch != epoch || c.conn == nil {
		return
	}
	c.conn.Close()
	c.conn, c.br, c.bw = nil, nil, nil
	c.needRedial = true
	c.epoch++
	victims := c.inflight
	c.inflight = nil
	c.failLocked(victims, cause, true)
}
