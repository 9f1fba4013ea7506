// Package offload implements the host-memory side of the JPEG-ACT
// system: after the forward pass, saved activations are *actually*
// serialized into compressed byte buffers (the CPU DRAM of Fig. 7) and
// the float tensors are released; before a layer's backward pass its
// activation is restored by decompressing the stored bytes. It is also
// how internal/train runs the paper's functional simulation of every
// Table I method: the same engine over a clean in-process channel, so
// between offload and restore only the compressed bytes are live.
//
// The stack is split into three explicit layers, mirroring the paper's
// Fig. 7 datapath:
//
//   - codec (internal/offload/codec): pure tensor↔frame compression,
//     the CDU of the paper;
//   - transport (internal/offload/transport): the pluggable byte path —
//     framing, CRC validation, retry — with an in-process channel
//     backend (the DMA engine) and a wire client for the networked
//     activation store (internal/offload/netstore);
//   - scheduler (Engine, engine.go): the async pipeline that overlaps
//     compression and transfers with forward/backward compute.
//
// Store is the bookkeeping core the layers meet at: it maps activation
// refs to keyed transport entries, and restores synchronously whatever a
// step's backward pass left resident. On corruption a configurable
// RecoveryPolicy decides how many times the transport is re-read before
// a restore fails with a typed error, the entry retained; under
// PolicyRecompute the trainer (internal/train) then replays the whole
// step from its batch input, gradient-checkpointing style. Nothing here
// calls back into it.
package offload

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// ErrNotStored is returned when restoring a ref that was never offloaded.
var ErrNotStored = errors.New("offload: activation not stored")

// RecoveryPolicy selects what Restore does when a frame fails its CRC.
type RecoveryPolicy int

const (
	// PolicyFail returns a typed error; the host entry is retained.
	PolicyFail RecoveryPolicy = iota
	// PolicyRetry re-reads through the transport up to MaxRetries times
	// before failing.
	PolicyRetry
	// PolicyRecompute re-reads like PolicyRetry (MaxRetries, no default)
	// and then fails like PolicyFail; internal/train answers the failed
	// restore by replaying the step from its batch input.
	PolicyRecompute
)

// String implements fmt.Stringer.
func (p RecoveryPolicy) String() string {
	switch p {
	case PolicyFail:
		return "fail"
	case PolicyRetry:
		return "retry"
	case PolicyRecompute:
		return "recompute"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Recovery configures the corruption-recovery behaviour of a Store. The
// zero value is PolicyFail.
type Recovery struct {
	Policy RecoveryPolicy
	// MaxRetries bounds the transport re-reads under PolicyRetry and
	// PolicyRecompute (0 under PolicyRetry defaults to 3). On the
	// networked backend a retry is a reconnect+resend cycle. A restore
	// that fails past it returns its typed error with the entry retained,
	// under every policy.
	MaxRetries int
	// OpTimeout bounds each wire attempt via connection deadlines
	// (0 = none; the in-process backend ignores it).
	OpTimeout time.Duration
	// Deadline bounds the wall time of one operation's whole retry
	// schedule; on expiry the wire reports the typed
	// ErrStoreUnavailable — the verdict the circuit breaker counts —
	// instead of spinning on a dead store (0 = unbounded).
	Deadline time.Duration
}

// Stats is the unified point-in-time counter snapshot every layer of
// the stack shares: the store's offload/restore/recovery counters and
// the transport's corruption/retry counters are fields of one
// transport.Counters block, and the netstore server reports the same
// Snapshot shape over its STATS op and /metrics endpoint.
type Stats = transport.Snapshot

// entry is one offloaded activation: the offload sequence number that
// fixes the deterministic reverse-restore order (and doubles as the
// transport key) plus the framed byte footprint the backend holds.
// degraded marks frames the circuit breaker routed to the local
// fallback instead of the wire; held is the framed bytes of a frame
// that stayed on the device and never crossed the transport. Restore
// and delete follow the entry so a frame is always read back from
// wherever its bytes actually live. shape is the activation's, and arena
// the step arena its commit released the tensor's buffer to (nil when
// the buffer was not an arena's): the restore decodes into a buffer
// drawn from it.
type entry struct {
	seq      int
	size     int
	degraded bool
	held     []byte
	shape    tensor.Shape
	arena    *tensor.Arena
}

// Store is a host-memory activation store. It composes the codec and
// transport layers and owns the ref→entry bookkeeping; the scheduler
// (Engine) commits every offload through it, and its synchronous
// Restore and RestoreAll take back what a step's backward pass left.
type Store struct {
	// Codec is the frame codec set every offload encodes with and every
	// restore decodes with (NewStore: JPEG-ACT). Change it only between
	// steps, with nothing resident — a trainer switches a DQT schedule's
	// table this way at an epoch boundary.
	Codec codec.Pipeline
	// Channel is the GPU↔host byte path of the default in-process
	// backend (nil = clean passthrough; internal/faults.Injector
	// implements it). Ignored when Transport is set.
	Channel transport.Channel
	// Transport overrides the byte-path backend — e.g. a
	// transport.NetClient talking to a shared netstore server. Build it
	// with this store's Counters() so its fault and byte counters land
	// in Stats(), and set it before the first operation.
	Transport transport.Transport
	// KeyBase is OR'd into every transport key (the offload sequence
	// number occupies the low bits). Give each client process of a
	// shared networked store a disjoint base — e.g. id<<32 — so their
	// key spaces cannot collide.
	KeyBase uint64
	// Recovery selects the corruption policy (zero value = PolicyFail).
	Recovery Recovery
	// NoDegrade turns the circuit breaker guarding a wire Transport off:
	// whole-op wire failures surface as errors. With the breaker on (the
	// default), offloads degrade to an in-process fallback holding the
	// identical encoded bytes, so training continues bit-identically
	// through a dead store.
	NoDegrade bool

	mu       sync.Mutex
	entries  map[*nn.ActRef]*entry
	nextSeq  int
	local    *transport.Local
	fallback *transport.Local
	brk      breaker

	counters transport.Counters
}

// NewStore builds a store with the JPEG-ACT codec at the given
// quantization table and a clean in-process transport.
func NewStore(d quant.DQT) *Store {
	return &Store{Codec: codec.New(d), entries: map[*nn.ActRef]*entry{}}
}

// Counters exposes the store's live counter block so an externally
// built transport backend (a NetClient) can share it.
func (s *Store) Counters() *transport.Counters { return &s.counters }

// transportOf returns the byte-path backend: the configured Transport,
// or the default in-process backend built lazily over Channel (so tests
// that assign Channel after NewStore see it).
func (s *Store) transportOf() transport.Transport {
	if s.Transport != nil {
		return s.Transport
	}
	s.mu.Lock()
	if s.local == nil {
		s.local = transport.NewLocal(s.Channel, &s.counters)
	}
	t := s.local
	s.mu.Unlock()
	return t
}

// fallbackT returns the degraded-mode backend: a clean in-process store
// that receives the same encoded frames a healthy wire PUT would carry.
// Built lazily — a run that never trips the breaker never allocates it.
func (s *Store) fallbackT() transport.Transport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fallback == nil {
		s.fallback = transport.NewLocal(nil, &s.counters)
	}
	return s.fallback
}

// breakerActive reports whether wire ops should consult the breaker: it
// only guards an explicit wire Transport, and only when not disabled.
func (s *Store) breakerActive() bool {
	return s.Transport != nil && !s.NoDegrade
}

// effRetries maps the recovery policy onto the transport retry budget.
func (s *Store) effRetries() int {
	switch s.Recovery.Policy {
	case PolicyFail:
		return 0
	case PolicyRetry:
		if s.Recovery.MaxRetries == 0 {
			return 3
		}
	}
	return s.Recovery.MaxRetries
}

// retry builds the transport retry schedule from the recovery config.
func (s *Store) retry() transport.Retry {
	return transport.Retry{
		Attempts:  s.effRetries(),
		OpTimeout: s.Recovery.OpTimeout,
		Total:     s.Recovery.Deadline,
	}
}

// key maps an offload sequence number onto its transport key.
func (s *Store) key(seq int) uint64 { return s.KeyBase | uint64(seq) }

// Stats returns a point-in-time snapshot of the counters.
func (s *Store) Stats() Stats { return s.counters.Snapshot() }

// ticket is one routed transfer in flight: the backend's completion
// handle, and where it went — the breaker's degraded fallback, no
// backend at all for a held frame's read, or the configured transport.
type ticket struct {
	h        *transport.Pending
	degraded bool
	held     bool
}

// commitTicket is one issued-but-unfinished commit: the sequence number
// already claimed, the routed PUT in flight (none for a held frame), and
// the ref bookkeeping commitWait still has to perform. The scheduler
// keeps a bounded FIFO of these so encode-commit traffic pipelines over
// the wire.
type commitTicket struct {
	ref  *nn.ActRef
	seq  int
	data []byte
	mask []bool
	hold bool
	put  ticket
}

// commitIssue claims the next offload sequence number and launches the
// routed PUT without waiting for the response; a held frame claims its
// sequence and issues nothing. Callers must issue tickets in strict
// submission order (the sequence and the wire order must agree) and
// complete each one with commitWait, in the same order.
func (s *Store) commitIssue(ref *nn.ActRef, data []byte, mask []bool, hold bool) *commitTicket {
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()
	t := &commitTicket{ref: ref, seq: seq, data: data, mask: mask, hold: hold}
	if !hold {
		t.put = s.putIssue(s.key(seq), data)
	}
	return t
}

// commitWait blocks for the ticket's PUT result (a held frame has none:
// its bytes go into the entry), releases the ref's tensor (attaching the
// BRC mask when present), and records the entry. Encode has finished
// with the tensor and containers never release a saved ref, so nothing
// reads it any more: its buffer goes back to the step arena it came
// from, if any — from the engine's drain goroutine — and the entry
// remembers that arena for the restore.
func (s *Store) commitWait(t *commitTicket) error {
	e := &entry{seq: t.seq, size: len(t.data), shape: t.ref.T.Shape}
	if t.hold {
		e.held = t.data
	} else {
		// What the Put reports is what actually landed on the backend
		// (send-side faults on the in-process channel are persistent).
		var err error
		e.size, e.degraded, err = s.putWait(s.key(t.seq), t.data, t.put)
		if err != nil {
			return fmt.Errorf("offload: offload %q (%s): %w", t.ref.Name, t.ref.Kind, err)
		}
	}
	if t.mask != nil {
		t.ref.Mask = t.mask
	}
	e.arena = t.ref.T.Release()
	t.ref.T = nil
	s.mu.Lock()
	s.entries[t.ref] = e
	s.mu.Unlock()
	s.counters.Offloaded.Add(1)
	s.counters.BytesOffloaded.Add(int64(e.size))
	return nil
}

// putIssue routes one encoded frame and launches the transfer without
// waiting: to the configured transport (so issues pipeline up to a wire
// client's window), or — when the circuit breaker is already open —
// straight to the degraded local fallback. The breaker's routing
// decision is made at issue time; a breaker that trips between issue
// and wait affects the next issue, not this one (putWait still degrades
// this op's bytes if its own wire attempt exhausts unavailable).
func (s *Store) putIssue(key uint64, data []byte) ticket {
	if s.breakerActive() && s.brk.skipWire() {
		s.counters.Degraded.Add(1)
		return ticket{h: s.fallbackT().PutAsync(key, data, transport.Retry{}), degraded: true}
	}
	return ticket{h: s.transportOf().PutAsync(key, data, s.retry())}
}

// putWait completes a routed PUT: it reports what actually landed and
// where, applying the breaker bookkeeping — a wire op whose whole retry
// schedule failed at the connection level opens the breaker and its
// identical bytes land on the local fallback instead, so training
// trajectories stay bit-identical across healthy, degraded, and
// recovered stretches.
func (s *Store) putWait(key uint64, data []byte, t ticket) (stored int, degraded bool, err error) {
	n, err := t.h.PutResult()
	if t.degraded || !s.breakerActive() {
		return n, t.degraded, err
	}
	if err == nil {
		s.brk.onSuccess()
		return n, false, nil
	}
	if !errors.Is(err, transport.ErrStoreUnavailable) {
		// Payload-level failure (corruption past the retry budget):
		// the wire is answering, so this is not a breaker event.
		return 0, false, err
	}
	s.brk.onFailure()
	s.counters.Degraded.Add(1)
	n, err = s.fallbackT().PutAsync(key, data, transport.Retry{}).PutResult()
	return n, true, err
}

// lookup returns the entry for ref, if resident.
func (s *Store) lookup(ref *nn.ActRef) (*entry, bool) {
	s.mu.Lock()
	e, ok := s.entries[ref]
	s.mu.Unlock()
	return e, ok
}

// resident is one row of a residents snapshot.
type resident struct {
	ref *nn.ActRef
	ent *entry
}

// residents snapshots the resident entries newest first — reverse-offload
// order: the last activation saved is the first the backward pass needs.
func (s *Store) residents() []resident {
	s.mu.Lock()
	rs := make([]resident, 0, len(s.entries))
	for ref, e := range s.entries {
		rs = append(rs, resident{ref, e})
	}
	s.mu.Unlock()
	sort.Slice(rs, func(i, j int) bool { return rs[i].ent.seq > rs[j].ent.seq })
	return rs
}

// readIssue launches the entry's read without waiting for the frame, so
// a prefetcher can keep a window of staging GETs on the wire at once. A
// held entry's frame never left the device: it takes the same CRC check
// a wire frame does, with no transport op. A degraded entry's frame was
// never sent to the wire — its only copy lives in the breaker's
// fallback, which answers instead. Responses complete in issue order
// (the wire protocol is FIFO), so the caller must readWait tickets in
// the order it issued them.
func (s *Store) readIssue(e *entry) ticket {
	if e.held != nil {
		f, err := frame.DecodeFrame(e.held)
		if err == nil {
			s.counters.BytesVerified.Add(int64(len(e.held)))
		}
		return ticket{h: transport.Resolved(0, f, err), held: true}
	}
	if e.degraded {
		s.counters.Degraded.Add(1)
		return ticket{h: s.fallbackT().GetAsync(s.key(e.seq), transport.Retry{}, false), degraded: true}
	}
	return ticket{h: s.transportOf().GetAsync(s.key(e.seq), s.retry(), false)}
}

// readWait completes an issued read, returning the verified frame
// without decoding it and applying the breaker bookkeeping. It does not
// mutate the store, so a failure leaves the entry untouched.
func (s *Store) readWait(t ticket) (*frame.Frame, error) {
	f, err := t.h.GetResult()
	if !t.degraded && !t.held && s.breakerActive() {
		if err == nil {
			s.brk.onSuccess()
		} else if errors.Is(err, transport.ErrStoreUnavailable) {
			// The failure still surfaces — the bytes are gone with the
			// store, so only the recompute policy's replay can recover
			// this ref — but it opens the breaker so the replay's
			// offloads degrade instead of beating on a dead wire.
			s.brk.onFailure()
		}
	}
	return f, err
}

// deleteEntry releases the backend copy wherever it lives; a held
// frame has none.
func (s *Store) deleteEntry(e *entry) {
	switch {
	case e.held != nil:
	case e.degraded:
		s.fallbackT().Delete(s.key(e.seq))
	default:
		s.transportOf().Delete(s.key(e.seq))
	}
}

// fetch reads and decodes the entry (the policy's retry schedule on the
// read).
func (s *Store) fetch(e *entry) (*tensor.Tensor, error) {
	f, err := s.readWait(s.readIssue(e))
	if err != nil {
		return nil, err
	}
	return s.decode(e, f)
}

// decode reconstructs the entry's verified frame into a buffer drawn from
// the arena its commit released the tensor to — the heap when it released
// none (the batch input) — so a restore takes back exactly what its
// commit gave, and the activation never exists twice. A BRC frame
// restores nothing: the ref keeps only its mask. A failed decode hands
// its buffer back.
func (s *Store) decode(e *entry, f *frame.Frame) (*tensor.Tensor, error) {
	if f.Shape != e.shape {
		return nil, fmt.Errorf("%w: a %v frame for a %v activation", frame.ErrHeader, f.Shape, e.shape)
	}
	if f.Codec == frame.CodecBRC {
		return nil, nil
	}
	t := e.arena.Get(f.Shape)
	if err := s.Codec.DecodeInto(f, t); err != nil {
		t.Release()
		return nil, err
	}
	return t, nil
}

// finishRestore attaches the staged tensor (nil for BRC refs, whose
// mask is already attached) and frees the backend copy (best-effort — a
// failed delete only leaks backend memory, never correctness).
func (s *Store) finishRestore(ref *nn.ActRef, e *entry, t *tensor.Tensor) {
	if t != nil {
		ref.T = t
	}
	s.mu.Lock()
	delete(s.entries, ref)
	s.mu.Unlock()
	s.deleteEntry(e)
	s.counters.Restored.Add(1)
}

// restoreErr is the typed error of a failed restore of ref. The entry is
// retained: the only copy of the activation must not be destroyed by a
// failed read or decode.
func restoreErr(ref *nn.ActRef, err error) error {
	return fmt.Errorf("offload: restore %q (%s): %w", ref.Name, ref.Kind, err)
}

// Restore decompresses the stored activation back into ref.T (no-op for
// BRC refs, whose mask is already attached) and frees the backend copy —
// but only after the frame's CRC is verified and the payload decodes, so
// a failed restore always leaves the compressed copy intact. The
// policy's retry schedule runs on the read; past it the typed error is
// returned.
func (s *Store) Restore(ref *nn.ActRef) error {
	e, ok := s.lookup(ref)
	if !ok {
		return restoreErr(ref, ErrNotStored)
	}
	t, err := s.fetch(e)
	if err != nil {
		return restoreErr(ref, err)
	}
	s.finishRestore(ref, e, t)
	return nil
}

// RestoreAll restores every stored ref in deterministic reverse-offload
// order — the order the backward prefetcher would request them — so peak
// memory and error attribution are identical across runs regardless of
// Go map iteration.
func (s *Store) RestoreAll() error {
	for _, r := range s.residents() {
		if err := s.Restore(r.ref); err != nil {
			return err
		}
	}
	return nil
}

// Reset drops every entry, releasing the backend copies (counters and
// the offload sequence are preserved). The recompute policy's replay
// uses it to discard an aborted step's entries before the step runs
// again.
func (s *Store) Reset() {
	s.mu.Lock()
	old := s.entries
	s.entries = map[*nn.ActRef]*entry{}
	s.mu.Unlock()
	for _, e := range old {
		s.deleteEntry(e)
	}
}

// Close drops the entries still resident — a failed step's, which would
// otherwise outlive the store on a shared server — then releases the
// transport backend (the in-process backend's buffers, or a network
// client's connection) and the breaker's degraded fallback, when one was
// ever built.
func (s *Store) Close() error {
	s.Reset()
	err := s.transportOf().Close()
	s.mu.Lock()
	f := s.fallback
	s.mu.Unlock()
	if f != nil {
		f.Close()
	}
	return err
}

// Stored returns the number of resident entries.
func (s *Store) Stored() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
