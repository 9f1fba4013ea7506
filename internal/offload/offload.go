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
// refs to entries whose frame lives on the transport under a key, or in
// the entry itself when it never crossed the transport (the engine's
// held tail, or a frame the circuit breaker kept off a dead wire); the
// engine's restore plan reads each entry back once. On corruption a
// configurable RecoveryPolicy decides how many times the transport is
// re-read before a restore fails with a typed error, the entry
// retained; under PolicyRecompute the trainer (internal/train) then
// replays the whole step from its batch input, gradient-checkpointing
// style. Nothing here calls back into it.
package offload

import (
	"errors"
	"fmt"
	"math/rand/v2"
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

// RecoveryPolicy selects what a restore does when a frame fails its CRC.
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
	// Deadline bounds the wall time of one operation's whole retry
	// schedule (the trainers' wire client bounds each attempt within it
	// by transport.AttemptTimeout); on expiry the wire reports the typed
	// ErrStoreUnavailable — the verdict the circuit breaker counts —
	// instead of spinning on a dead store (0 = unbounded).
	Deadline time.Duration
}

// Stats is the unified point-in-time counter snapshot every layer of
// the stack shares: the store's offload/restore/recovery counters and
// the transport's corruption/retry counters are fields of one
// transport.Counters block, and the netstore server reports the same
// Snapshot shape on its /metrics endpoint.
type Stats = transport.Snapshot

// entry is one offloaded activation: the offload sequence number that
// fixes the deterministic reverse-restore order (and doubles as the
// transport key) plus its framed byte footprint. A frame lives on the
// transport or in held, the framed bytes of a frame that never crossed
// it: one the engine kept on the device (the held tail, or a BRC frame,
// whose mask the ref keeps), or one the circuit breaker kept off a dead
// wire (degraded, which counts its restore). Restore and delete follow
// held, so a frame is always read back from wherever its bytes actually
// live. shape is the activation's, and arena the step
// arena its commit released the tensor's buffer to (nil when the buffer
// was not an arena's): the restore decodes into a buffer drawn from it.
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
// (Engine) commits every offload and reads every restore through it.
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
	// Recovery selects the corruption policy (zero value = PolicyFail).
	Recovery Recovery
	// NoDegrade turns the circuit breaker guarding a wire Transport off:
	// whole-op wire failures surface as errors. With the breaker on (the
	// default), an offload the wire cannot take degrades: its entry keeps
	// the identical encoded bytes, so training continues bit-identically
	// through a dead store.
	NoDegrade bool

	mu      sync.Mutex
	entries map[*nn.ActRef]*entry
	nextSeq int
	base    uint64
	local   *transport.Local
	brk     breaker

	counters transport.Counters
}

// NewStore builds a store with the JPEG-ACT codec at the given
// quantization table and a clean in-process transport. It draws the
// store's key namespace, bits 32–62 of every transport key, once: two
// stores sharing one server collide with probability 2⁻³¹, whoever
// builds them. Bit 63 stays clear for the gradient exchange
// (transport.IsGradKey).
func NewStore(d quant.DQT) *Store {
	return &Store{Codec: codec.New(d), entries: map[*nn.ActRef]*entry{}, base: rand.Uint64N(1<<31) << 32}
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
	return transport.Retry{Attempts: s.effRetries(), Total: s.Recovery.Deadline}
}

// key maps an offload sequence number onto its transport key.
func (s *Store) key(seq int) uint64 { return s.base | uint64(seq) }

// Stats returns a point-in-time snapshot of the counters.
func (s *Store) Stats() Stats { return s.counters.Snapshot() }

// commitTicket is one issued-but-unfinished commit: the sequence number
// already claimed, the PUT in flight (nil for a frame whose bytes stay in
// its entry), and the ref bookkeeping commitWait still has to perform.
// The scheduler keeps a bounded FIFO of these so encode-commit traffic
// pipelines over the wire.
type commitTicket struct {
	ref      *nn.ActRef
	seq      int
	data     []byte
	mask     []bool
	degraded bool
	put      *transport.Pending
}

// commitIssue claims the next offload sequence number and decides where
// the frame lives: a held frame, a BRC frame (its mask stays on the
// device; the frame is only its accounting), or one the open circuit
// breaker keeps off the wire, issues nothing; anything else is one PUT,
// launched without waiting for the response. The breaker decides at
// issue time; one that trips between issue and wait affects the next
// issue, not this one. Callers must issue tickets in strict submission
// order (the sequence and the wire order must agree) and complete each
// one with commitWait, in the same order.
func (s *Store) commitIssue(ref *nn.ActRef, data []byte, mask []bool, hold bool) *commitTicket {
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()
	t := &commitTicket{ref: ref, seq: seq, data: data, mask: mask}
	switch {
	case hold || mask != nil:
	case s.breakerActive() && s.brk.skipWire():
		s.counters.Degraded.Add(1)
		t.degraded = true
	default:
		t.put = s.transportOf().PutAsync(s.key(seq), data, s.retry())
	}
	return t
}

// commitWait blocks for the ticket's PUT result, applying the breaker
// bookkeeping — a PUT whose whole retry schedule failed at the
// connection level opens the breaker and degrades, its entry keeping
// the identical bytes, so trajectories stay bit-identical across
// healthy, degraded and recovered stretches. It then releases the ref's
// tensor (attaching the BRC mask when present) and records the entry.
// Encode has finished with the tensor and containers never release a
// saved ref, so nothing reads it any more: its buffer goes back to the
// step arena it came from, if any — from the engine's drain goroutine —
// and the entry remembers that arena for the restore.
func (s *Store) commitWait(t *commitTicket) error {
	e := &entry{seq: t.seq, size: len(t.data), degraded: t.degraded, shape: t.ref.T.Shape}
	if t.put != nil {
		// What the Put reports is what actually landed on the backend
		// (send-side faults on the in-process channel are persistent).
		var err error
		e.size, err = t.put.PutResult()
		if s.breakerActive() {
			// Any other failure (corruption past the retry budget)
			// means the wire is answering: not a breaker event.
			switch {
			case err == nil:
				s.brk.onSuccess()
			case errors.Is(err, transport.ErrStoreUnavailable):
				s.brk.onFailure()
				s.counters.Degraded.Add(1)
				e.size, e.degraded, err = len(t.data), true, nil
			}
		}
		if err != nil {
			return fmt.Errorf("offload: offload %q (%s): %w", t.ref.Name, t.ref.Kind, err)
		}
	}
	if t.put == nil || e.degraded {
		e.held = t.data
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
// frame held in its entry never crossed the transport: it takes the same
// CRC check a wire frame does, with no transport op (a degraded one
// counts). Responses complete in issue order (the wire protocol is
// FIFO), so the caller must readWait reads in the order it issued them.
func (s *Store) readIssue(e *entry) *transport.Pending {
	if e.held == nil {
		return s.transportOf().GetAsync(s.key(e.seq), s.retry(), false)
	}
	if e.degraded {
		s.counters.Degraded.Add(1)
	}
	f, err := frame.DecodeFrame(e.held)
	if err == nil {
		s.counters.BytesVerified.Add(int64(len(e.held)))
	}
	return transport.Resolved(0, f, err)
}

// readWait completes the entry's issued read, returning the verified
// frame without decoding it and applying the breaker bookkeeping to a
// wire read. It does not mutate the store, so a failure leaves the entry
// untouched.
func (s *Store) readWait(e *entry, h *transport.Pending) (*frame.Frame, error) {
	f, err := h.GetResult()
	if e.held == nil && s.breakerActive() {
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

// deleteEntry releases the transport's copy; a frame held in its entry
// has none.
func (s *Store) deleteEntry(e *entry) {
	if e.held == nil {
		s.transportOf().Delete(s.key(e.seq))
	}
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
// client's connection).
func (s *Store) Close() error {
	s.Reset()
	return s.transportOf().Close()
}

// Stored returns the number of resident entries.
func (s *Store) Stored() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
