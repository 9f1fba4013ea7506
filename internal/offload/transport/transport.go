// Package transport is the byte-moving layer of the offload stack: it
// owns the GPU↔host byte-path abstraction, the framed read path with its
// CRC validation, and the retry schedule that absorbs transient faults.
// It knows nothing about tensors or compression — it moves validated
// frames, nothing more.
//
// Transport is the one interface the offload store, its scheduler and
// the gradient exchange are written against: every operation is
// submitted and answers through a completion handle (Pending), and a
// synchronous operation is a wait on that handle. Two backends
// implement it —
//
//   - Local, the in-process host-memory backend over a Channel (the
//     default, and the substrate the internal/faults injector plugs
//     into), whose handles come back already resolved;
//   - NetClient (netclient.go, pipeline.go), a windowed wire client
//     speaking the length-prefixed request/response protocol of wire.go
//     over any net.Conn, with reconnect+resend riding the Retry
//     schedule. The sharded server in internal/offload/netstore serves
//     that protocol to many concurrent client processes.
//
// The layer split (codec / transport / scheduler) mirrors the paper's
// Fig. 7 datapath: the CDU compresses (codec), the DMA engine moves
// bytes over PCIe (this package), and the memory manager schedules the
// transfers against compute (internal/offload.Engine).
package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"jpegact/internal/frame"
)

// Channel abstracts the GPU↔host byte path of the Local backend. Send
// models the offload direction (what it returns is what lands in host
// memory — faults there are persistent); Recv models the restore
// direction (faults there are transient, so a retry re-reads the intact
// host copy). A nil return models a dropped transfer.
// internal/faults.Injector implements this interface; Clean is the
// fault-free default.
type Channel interface {
	Send(b []byte) []byte
	Recv(b []byte) []byte
}

// Clean is the fault-free passthrough channel.
type Clean struct{}

// Send implements Channel.
func (Clean) Send(b []byte) []byte { return b }

// Recv implements Channel.
func (Clean) Recv(b []byte) []byte { return b }

// ErrDropped reports a transfer that yielded no bytes at all (the
// channel returned nil) — a lost DMA, distinct from a truncated or
// bit-flipped one. Reads that fail this way are retried on the same
// schedule as corrupted ones, since a drop on the Recv side is
// transient.
var ErrDropped = errors.New("transport: transfer dropped")

// ErrNotFound reports a Get or Delete for a key the backend holds no
// entry for — on a networked store, typically a key another process
// deleted or a server that lost its state. Match with errors.Is.
var ErrNotFound = errors.New("transport: no entry for key")

// ErrStoreUnavailable reports that the backend could not be reached at
// all within the operation's deadline budget: every dial, write or read
// attempt of the schedule failed at the connection level (dead server,
// unreachable socket, per-op deadlines expiring on a stalled link). It
// is the terminal verdict of the retry loop, never a single-attempt
// error — callers that see it know the schedule is exhausted and the
// store is presumed down, which is what the offload layer's circuit
// breaker keys its trip decision on. Match with errors.Is.
var ErrStoreUnavailable = errors.New("transport: activation store unavailable")

// Retry is the per-operation retry schedule a backend applies to a
// failed transfer: Attempts bounds the re-reads (or reconnect+resend
// cycles, for a networked backend) after the first failure, Backoff is
// the initial delay between them, doubled each attempt (0 retries
// immediately — the right setting for simulated channels).
type Retry struct {
	Attempts int
	Backoff  time.Duration
	// Sleep is invoked for backoff delays; nil means time.Sleep. Tests
	// inject a recording clock here so recovery paths never real-sleep.
	Sleep func(time.Duration)
	// OpTimeout bounds one attempt of a networked operation (the write
	// plus the wait for its response) via connection deadlines, so a
	// stalled server or link surfaces as a retryable timeout instead of
	// hanging the training step forever. 0 = no per-attempt deadline.
	// The in-process backend ignores it (a map read cannot stall).
	OpTimeout time.Duration
	// Total bounds the wall-clock of the whole schedule — first attempt,
	// every reconnect+resend cycle and every backoff sleep included.
	// When the budget is exhausted the operation fails with a typed
	// ErrStoreUnavailable rather than starting another cycle, so a
	// permanently dead server costs a bounded stall, never a hang.
	// 0 = attempts alone bound the schedule.
	Total time.Duration
}

func (r Retry) sleep(d time.Duration) {
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Transport is the pluggable byte-path interface the offload store is
// written against. Keys are opaque 64-bit names the store assigns (its
// offload sequence number, optionally OR'd with a per-client KeyBase so
// processes sharing a networked backend stay disjoint).
//
// PutAsync ships one encoded frame to the backend; its handle's
// PutResult reports how many bytes landed (a faulty send may persist
// fewer). GetAsync brings the frame back; GetResult returns it
// CRC-validated, the Retry schedule applied to transient failures. The
// coef flag marks a read the consumer will serve as a quantized DCT
// coefficient plane (same bytes — a networked backend counts it
// separately, since serving the compressed plane without the inverse
// transform is the cheap path the frequency-domain consumers ride).
// A submit blocks only for window backpressure, never for the result;
// handles resolve in submission order. Depth is how many submitted
// operations the backend keeps unresolved at once (>= 1): the wire
// window of a NetClient, 1 for a backend whose handles come back
// already resolved — it sizes the schedulers' FIFOs. Delete releases
// the backend's copy after a successful restore, synchronously.
type Transport interface {
	PutAsync(key uint64, data []byte, r Retry) *Pending
	GetAsync(key uint64, r Retry, coef bool) *Pending
	Depth() int
	Delete(key uint64) error
	Close() error
}

// Counters is the unified counter block shared by every layer of the
// offload stack: the store's offload/restore/recovery counters, the
// transport's corruption/retry counters, and the netstore server's
// serving counters are all fields of this one struct, so there is
// exactly one snapshot shape (Snapshot) everywhere — the store's
// Stats(), the wire STATS op and the server's /metrics endpoint all
// render it. All fields are atomic; read a coherent copy with Snapshot.
type Counters struct {
	Offloaded      atomic.Uint64 // activations put to the backend
	Restored       atomic.Uint64 // activations brought back successfully
	CoefRestores   atomic.Uint64 // restores served as coefficient planes
	Recomputed     atomic.Uint64 // corruptions resolved by the Recompute hook
	Corrupted      atomic.Uint64 // transfers that failed validation (incl. drops and broken connections)
	Retried        atomic.Uint64 // re-reads / reconnect+resend cycles attempted
	Dropped        atomic.Uint64 // reads that yielded no bytes (nil transfer)
	Reconnects     atomic.Uint64 // connections re-dialed by a networked backend
	Degraded       atomic.Uint64 // operations served by the degraded local fallback (breaker open)
	Hedged         atomic.Uint64 // reserved, always zero: hedged GETs are gone; bench/ and the stats JSON still read the field
	GradPuts       atomic.Uint64 // gradient frames put (keys in the grad namespace)
	GradGets       atomic.Uint64 // gradient frames fetched back
	BytesOffloaded atomic.Int64  // frame bytes written to the backend
	BytesVerified  atomic.Int64  // frame bytes CRC-verified back from it
	BytesGrad      atomic.Int64  // frame bytes moved under gradient keys (both directions)
}

// Snapshot is the plain-value copy of Counters — the one snapshot
// struct the whole stack shares (offload.Stats aliases it).
type Snapshot struct {
	Offloaded      uint64 `json:"offloaded"`
	Restored       uint64 `json:"restored"`
	CoefRestores   uint64 `json:"coef_restores"`
	Recomputed     uint64 `json:"recomputed"`
	Corrupted      uint64 `json:"corrupted"`
	Retried        uint64 `json:"retried"`
	Dropped        uint64 `json:"dropped"`
	Reconnects     uint64 `json:"reconnects"`
	Degraded       uint64 `json:"degraded"`
	Hedged         uint64 `json:"hedged"`
	GradPuts       uint64 `json:"grad_puts"`
	GradGets       uint64 `json:"grad_gets"`
	BytesOffloaded int64  `json:"bytes_offloaded"`
	BytesVerified  int64  `json:"bytes_verified"`
	BytesGrad      int64  `json:"bytes_grad"`
}

// Snapshot returns a point-in-time copy of the counters.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Offloaded:      c.Offloaded.Load(),
		Restored:       c.Restored.Load(),
		CoefRestores:   c.CoefRestores.Load(),
		Recomputed:     c.Recomputed.Load(),
		Corrupted:      c.Corrupted.Load(),
		Retried:        c.Retried.Load(),
		Dropped:        c.Dropped.Load(),
		Reconnects:     c.Reconnects.Load(),
		Degraded:       c.Degraded.Load(),
		Hedged:         c.Hedged.Load(),
		GradPuts:       c.GradPuts.Load(),
		GradGets:       c.GradGets.Load(),
		BytesOffloaded: c.BytesOffloaded.Load(),
		BytesVerified:  c.BytesVerified.Load(),
		BytesGrad:      c.BytesGrad.Load(),
	}
}

// WriteMetrics renders the snapshot in Prometheus text exposition
// format under the given namespace (e.g. "jpegact_store"). The netstore
// server's /metrics endpoint is this function over its live counters.
func (s Snapshot) WriteMetrics(w io.Writer, namespace string) error {
	rows := []struct {
		name string
		help string
		val  int64
	}{
		{"offloaded_total", "Activations put to the store", int64(s.Offloaded)},
		{"restored_total", "Activations restored from the store", int64(s.Restored)},
		{"coef_restores_total", "Restores served as DCT coefficient planes", int64(s.CoefRestores)},
		{"recomputed_total", "Corruptions resolved by forward-pass recompute", int64(s.Recomputed)},
		{"corrupted_total", "Transfers that failed validation", int64(s.Corrupted)},
		{"retried_total", "Transfer retries attempted", int64(s.Retried)},
		{"dropped_total", "Transfers that yielded no bytes", int64(s.Dropped)},
		{"reconnects_total", "Connections re-dialed", int64(s.Reconnects)},
		{"degraded_total", "Operations served by the degraded local fallback", int64(s.Degraded)},
		{"hedged_total", "Reserved, always zero (hedged GETs were removed)", int64(s.Hedged)},
		{"grad_puts_total", "Gradient frames put to the store", int64(s.GradPuts)},
		{"grad_gets_total", "Gradient frames fetched from the store", int64(s.GradGets)},
		{"bytes_offloaded_total", "Frame bytes written to the store", s.BytesOffloaded},
		{"bytes_verified_total", "Frame bytes CRC-verified back", s.BytesVerified},
		{"bytes_grad_total", "Frame bytes moved under gradient keys", s.BytesGrad},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			namespace, r.name, r.help, namespace, r.name, namespace, r.name, r.val); err != nil {
			return err
		}
	}
	return nil
}

// Local is the in-process backend: framed bytes live in a map guarded
// by a mutex, every Put crosses the Channel's Send side once
// (persistently — what Send returns is the only copy) and every Get
// re-crosses Recv under the Retry schedule. It is the default backend
// and the substrate the internal/faults injector plugs into.
type Local struct {
	ch       Channel
	counters *Counters

	mu   sync.Mutex
	bufs map[uint64][]byte
}

// NewLocal builds the in-process backend over ch (nil = Clean). A nil
// counters gets a private block.
func NewLocal(ch Channel, c *Counters) *Local {
	if ch == nil {
		ch = Clean{}
	}
	if c == nil {
		c = &Counters{}
	}
	return &Local{ch: ch, counters: c, bufs: map[uint64][]byte{}}
}

// Put stores data under key and reports how many bytes landed. The
// Retry schedule is ignored: send-side faults are persistent by the
// fault model's fiat (the corrupted bytes are what landed in host
// memory), so there is nothing to retry against.
func (l *Local) Put(key uint64, data []byte, _ Retry) (int, error) {
	buf := l.ch.Send(data)
	l.mu.Lock()
	l.bufs[key] = buf
	l.mu.Unlock()
	return len(buf), nil
}

// Get pulls the host copy back through the channel's Recv side and
// CRC-validates it, applying the retry schedule. A nil transfer is
// reported as ErrDropped (and counted separately from corruption); any
// other validation failure carries the typed frame error. The returned
// frame aliases the received bytes.
func (l *Local) Get(key uint64, r Retry, _ bool) (*frame.Frame, error) {
	l.mu.Lock()
	b, ok := l.bufs[key]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	backoff := r.Backoff
	var err error
	for attempt := 0; ; attempt++ {
		var f *frame.Frame
		got := l.ch.Recv(b)
		if got == nil {
			err = fmt.Errorf("%w (%d-byte host copy)", ErrDropped, len(b))
			l.counters.Dropped.Add(1)
		} else {
			f, err = frame.DecodeFrame(got)
		}
		if err == nil {
			l.counters.BytesVerified.Add(int64(len(got)))
			return f, nil
		}
		l.counters.Corrupted.Add(1)
		if attempt >= r.Attempts {
			return nil, err
		}
		l.counters.Retried.Add(1)
		if backoff > 0 {
			r.sleep(backoff)
			backoff *= 2
		}
	}
}

// PutAsync implements Transport. The in-process byte path has no
// latency to hide, so the op executes synchronously at submit time and
// the handle comes back resolved — schedulers written against handles
// keep this backend's deterministic op ordering (and its fault
// injection points) exactly.
func (l *Local) PutAsync(key uint64, data []byte, r Retry) *Pending {
	n, err := l.Put(key, data, r)
	return Resolved(n, nil, err)
}

// GetAsync implements Transport, inline like PutAsync.
func (l *Local) GetAsync(key uint64, r Retry, coef bool) *Pending {
	f, err := l.Get(key, r, coef)
	return Resolved(0, f, err)
}

// Depth implements Transport: handles resolve at submit, so nothing is
// ever in flight behind the one being issued.
func (l *Local) Depth() int { return 1 }

// Delete implements Transport. Deleting an absent key is not an error —
// the store calls it best-effort after a successful restore.
func (l *Local) Delete(key uint64) error {
	l.mu.Lock()
	delete(l.bufs, key)
	l.mu.Unlock()
	return nil
}

// Close implements Transport.
func (l *Local) Close() error {
	l.mu.Lock()
	l.bufs = map[uint64][]byte{}
	l.mu.Unlock()
	return nil
}
