package transport

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"jpegact/internal/frame"
)

// Dialer opens one connection to the activation store. The indirection
// is the fault-injection seam of the networked transport: tests wrap
// the returned net.Conn to drop connections mid-frame or flip bytes in
// flight, and the reconnect+resend schedule below must absorb it.
type Dialer func() (net.Conn, error)

// ParseAddr splits an activation-store address into (network, address)
// for net.Dial / net.Listen: "unix:/path/store.sock" selects a unix
// socket, "tcp:host:port" selects TCP, and a bare "host:port" defaults
// to TCP.
func ParseAddr(s string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(s, "unix:"):
		return "unix", strings.TrimPrefix(s, "unix:"), nil
	case strings.HasPrefix(s, "tcp:"):
		return "tcp", strings.TrimPrefix(s, "tcp:"), nil
	case strings.Contains(s, ":"):
		return "tcp", s, nil
	}
	return "", "", fmt.Errorf("transport: address %q: want unix:/path or tcp:host:port", s)
}

// DialAddr builds a Dialer for an address in ParseAddr's syntax.
func DialAddr(s string) (Dialer, error) {
	network, addr, err := ParseAddr(s)
	if err != nil {
		return nil, err
	}
	return func() (net.Conn, error) { return net.Dial(network, addr) }, nil
}

// dialConn runs dial under a watchdog so a blackholed TCP connect (the
// one I/O a conn deadline cannot cover, since there is no conn yet)
// still respects the per-op deadline. A dial that completes after the
// watchdog fires is reaped by a small goroutine that closes it.
func dialConn(dial Dialer, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		return dial()
	}
	type res struct {
		conn net.Conn
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := dial()
		ch <- res{conn, err}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-t.C:
		go func() {
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
		}()
		return nil, fmt.Errorf("transport: dial activation store: timed out after %v", timeout)
	}
}

// NetClient is the wire-protocol Transport backend, a *pipelined*
// client: operations are submitted to an internal queue, a pump
// goroutine streams up to Window requests onto one connection, and a
// reader goroutine matches responses to requests strictly FIFO (the
// wire protocol carries no request IDs; order is the contract). The
// synchronous Put/Get/Delete are the degenerate window-of-1 case —
// submit one op, wait for its handle.
//
// Failure handling is connection-granular: any dial, write or read
// failure closes the connection and *poisons* every op in flight on it
// — each is charged one failed attempt through its own Retry schedule
// and the survivors are resent in original submission order, ahead of
// anything not yet sent. A payload the CRC refuses (on either side of
// the wire) is charged to its own op by the same rule, the connection
// kept. Requests are idempotent (PUT overwrites, GET is a read, DELETE
// tolerates NotFound), so a resend after a mid-frame drop is always safe.
//
// Deadlines bound every attempt (the client's OpTimeout, via conn
// deadlines) and each operation's schedule as a whole (Retry.Total):
// once the budget is spent the operation returns a typed
// ErrStoreUnavailable instead of spinning on a dead server.
type NetClient struct {
	// Latency, when set, observes every successful exchange (op code
	// and wall-clock duration from the request hitting the wire to its
	// response validating) — the hook bench/ hangs its percentile
	// collector on. Set before first use. It is invoked from the
	// client's reader goroutine only, one call at a time.
	Latency func(op uint8, d time.Duration)
	// OpTimeout bounds one attempt of every operation (the dial, or the
	// write plus the wait for its response) via connection deadlines,
	// so a stalled server or link surfaces as a retryable timeout
	// instead of hanging the caller forever. 0 = no deadline. Set
	// before first use.
	OpTimeout time.Duration
	// Window bounds how many operations may be queued-or-in-flight on
	// the wire at once: 0 is DefaultWindow, 1 is stop-and-wait.
	// Submitting past the window blocks — backpressure, not buffering.
	// Set before first use.
	Window int

	dial     Dialer
	counters *Counters

	pmu        sync.Mutex
	pcond      *sync.Cond
	queue      []*Pending // submitted, not yet on the wire
	inflight   []*Pending // written, awaiting responses (FIFO)
	conn       net.Conn
	epoch      uint64 // retired on every poison/redial; keys the reader
	needRedial bool   // next dial is a reconnect (counted)
	pumping    bool
	closed     bool
}

// NewNetClient builds a client over dial. Pass the owning store's
// Counters() so connection faults and verified bytes land in the same
// snapshot as the store's own counters; nil gets a private block.
func NewNetClient(dial Dialer, c *Counters) *NetClient {
	if c == nil {
		c = &Counters{}
	}
	n := &NetClient{dial: dial, counters: c}
	n.pcond = sync.NewCond(&n.pmu)
	return n
}

// budgetSpent reports whether the schedule's total wall budget is gone.
func budgetSpent(start time.Time, r Retry) bool {
	return r.Total > 0 && time.Since(start) >= r.Total
}

// unavailable wraps the terminal error of an exhausted schedule whose
// failures were all connection-level — the typed verdict the circuit
// breaker above keys on.
func unavailable(op string, key uint64, attempts int, err error) error {
	return fmt.Errorf("transport: %s %d: %w after %d attempts: %v", op, key, ErrStoreUnavailable, attempts, err)
}

// Put is the synchronous window-of-1 form of PutAsync. The frame bytes are shipped under the key, with
// reconnect+resend on connection failures and a resend when the server
// reports the payload arrived CRC-corrupt. What the server acknowledged
// is what it stored, so stored == len(data) on success. An exhausted
// schedule (attempts or Total wall budget) against a dead server
// returns a typed ErrStoreUnavailable.
func (c *NetClient) Put(key uint64, data []byte, r Retry) (int, error) {
	return c.PutAsync(key, data, r).PutResult()
}

// Get is the synchronous window-of-1 form of GetAsync. The stored frame is fetched and validated client-side (the
// CRC ran on this side of the wire, so a frame that decodes here is
// trustworthy no matter what the link did). Connection failures and CRC
// mismatches both retry on the schedule; a NotFound is terminal. An
// exhausted schedule of connection-level failures returns a typed
// ErrStoreUnavailable.
func (c *NetClient) Get(key uint64, r Retry, coef bool) (*frame.Frame, error) {
	return c.GetAsync(key, r, coef).GetResult()
}

// Delete implements Transport. Deletes are housekeeping after a
// successful restore, so they ride a small fixed reconnect schedule
// (under the client's OpTimeout) and tolerate NotFound (another
// retry may already have landed it).
func (c *NetClient) Delete(key uint64) error {
	return c.submit(newPending(OpDelete, key, nil, Retry{Attempts: 2})).Err()
}

// Close implements Transport: the pipeline is quiesced — any
// outstanding ops fail with a typed ErrStoreUnavailable, the goroutines
// park and the connection drops. The client remains usable; a later
// operation reopens the pipeline and redials.
func (c *NetClient) Close() error {
	c.pmu.Lock()
	c.closed = true
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.epoch++
	outstanding := append(c.inflight, c.queue...)
	c.inflight, c.queue = nil, nil
	for _, p := range outstanding {
		p.complete(fmt.Errorf("transport: %s %d: %w: client closed", opName(p.op), p.key, ErrStoreUnavailable))
	}
	c.pcond.Broadcast()
	c.pmu.Unlock()
	return nil
}

var _ Transport = (*NetClient)(nil)
var _ Transport = (*Local)(nil)
