// Package offload implements the host-memory side of the JPEG-ACT
// system: after the forward pass, saved activations are *actually*
// serialized into compressed byte buffers (the CPU DRAM of Fig. 7) and
// the float tensors are released; before a layer's backward pass its
// activation is restored by decompressing the stored bytes. Unlike the
// functional simulation in internal/train — which swaps in the recovered
// tensor immediately — this path realizes the memory saving for real:
// between offload and restore, only the compressed bytes are live.
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
// refs to keyed transport entries and drives the synchronous
// (degenerate) path. On corruption a configurable RecoveryPolicy decides
// whether to fail with a typed error, re-read the transport, or
// recompute the activation from scratch (gradient-checkpointing style,
// wired in by internal/train).
package offload

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"jpegact/internal/frame"
	"jpegact/internal/freqdomain"
	"jpegact/internal/nn"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// ErrNotStored is returned when restoring a ref that was never offloaded.
var ErrNotStored = errors.New("offload: activation not stored")

// ErrCorrupted wraps a frame decode failure that survived the recovery
// policy; the host entry is retained so the caller can still retry or
// recompute out of band.
var ErrCorrupted = errors.New("offload: corrupted beyond recovery")

// RecoveryPolicy selects what Restore does when a frame fails its CRC.
type RecoveryPolicy int

const (
	// PolicyFail returns a typed error; the host entry is retained.
	PolicyFail RecoveryPolicy = iota
	// PolicyRetry re-reads through the transport up to MaxRetries times
	// before failing.
	PolicyRetry
	// PolicyRecompute first exhausts the retries, then invokes the
	// Recovery.Recompute hook to re-materialize the activation from the
	// nearest intact upstream state (internal/train wires this to a
	// forward-pass replay).
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
	// networked backend a retry is a reconnect+resend cycle.
	MaxRetries int
	// OpTimeout bounds each wire attempt via connection deadlines
	// (0 = none; the in-process backend ignores it).
	OpTimeout time.Duration
	// Deadline bounds the wall time of one operation's whole retry
	// schedule; on expiry the wire reports the typed
	// ErrStoreUnavailable — the verdict the circuit breaker counts —
	// instead of spinning on a dead store (0 = unbounded).
	Deadline time.Duration
	// Recompute re-materializes the corrupted ref's activation under
	// PolicyRecompute. The hook may rebuild the whole step — replay the
	// forward pass, Reset the store and re-offload fresh refs — in which
	// case the caller must refresh its ref list after Restore returns
	// (see train.ClassifierOffloaded).
	Recompute func(ref *nn.ActRef) error
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
// fallback instead of the wire; restore and delete follow the flag so a
// frame is always read back from wherever its bytes actually live.
type entry struct {
	seq      int
	size     int
	degraded bool
}

// Store is a host-memory activation store using the JPEG-ACT pipeline
// with a fixed DQT. It composes the codec and transport layers and owns
// the ref→entry bookkeeping; the async scheduler (Engine) drives it
// through the same internal operations the synchronous Offload/Restore
// use, so both paths land on identical bytes.
type Store struct {
	DQT quant.DQT
	S   float64
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
	// CoefPlan, when non-nil, marks the refs whose restore may be served
	// as a quantized-coefficient plane (ref.Coef) instead of a decoded
	// tensor. The trainer computes it from nn.CoefficientPlan — only refs
	// whose every consumer opted in qualify — and clears it each step.
	// Refs outside the plan (and non-JPEG frames within it) take the full
	// spatial decode, unchanged.
	CoefPlan func(ref *nn.ActRef) bool
	// NoDegrade turns the circuit breaker guarding a wire Transport off:
	// whole-op wire failures surface as errors. With the breaker on (the
	// default), offloads degrade to an in-process fallback holding the
	// identical encoded bytes, so training continues bit-identically
	// through a dead store.
	NoDegrade bool

	mu        sync.Mutex
	entries   map[*nn.ActRef]*entry
	nextSeq   int
	hostBytes int
	local     *transport.Local
	fallback  *transport.Local
	brk       breaker

	counters transport.Counters
}

// NewStore builds a store with the given quantization table and a clean
// in-process transport.
func NewStore(d quant.DQT) *Store {
	return &Store{DQT: d, S: sfpr.DefaultS, entries: map[*nn.ActRef]*entry{}}
}

// Counters exposes the store's live counter block so an externally
// built transport backend (a NetClient) can share it.
func (s *Store) Counters() *transport.Counters { return &s.counters }

// pipeline returns the codec layer configured with the store's table.
func (s *Store) pipeline() codec.Pipeline {
	return codec.Pipeline{DQT: s.DQT, S: s.S}
}

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

// Offload compresses the ref's activation into a framed buffer on the
// transport backend and releases the tensor (ref.T becomes nil, or a
// BRC mask replaces it). Refs are deduplicated by pointer; offloading
// the same ref twice is an error.
func (s *Store) Offload(ref *nn.ActRef) error {
	s.mu.Lock()
	_, dup := s.entries[ref]
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("offload: offload %q (%s): already stored", ref.Name, ref.Kind)
	}
	if ref.T == nil {
		return fmt.Errorf("offload: offload %q (%s): %w", ref.Name, ref.Kind, ErrNotStored)
	}
	enc, err := s.pipeline().Encode(ref.Kind, ref.T)
	if err != nil {
		return fmt.Errorf("offload: offload %q (%s): %w", ref.Name, ref.Kind, err)
	}
	_, err = s.commitEncoded(ref, frame.EncodeFrame(enc.Frame), enc.Mask)
	return err
}

// ticket is one routed transfer in flight: the backend's completion
// handle, and whether that backend is the breaker's degraded fallback
// (the configured transport otherwise).
type ticket struct {
	h        *transport.Pending
	degraded bool
}

// commitTicket is one issued-but-unfinished commit: the sequence number
// already claimed, the routed PUT in flight, and the ref bookkeeping
// commitWait still has to perform. The scheduler keeps a bounded FIFO
// of these so encode-commit traffic pipelines over the wire.
type commitTicket struct {
	ref  *nn.ActRef
	seq  int
	data []byte
	mask []bool
	put  ticket
}

// commitIssue claims the next offload sequence number and launches the
// routed PUT without waiting for the response. Callers must issue
// tickets in strict submission order (the sequence and the wire order
// must agree) and complete each one with commitWait, in the same order.
func (s *Store) commitIssue(ref *nn.ActRef, data []byte, mask []bool) *commitTicket {
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()
	return &commitTicket{
		ref: ref, seq: seq, data: data, mask: mask,
		put: s.putIssue(s.key(seq), data),
	}
}

// commitWait blocks for the ticket's PUT result, records the entry, and
// releases the ref's tensor (attaching the BRC mask when present).
func (s *Store) commitWait(t *commitTicket) (*entry, error) {
	// What the Put reports is what actually landed on the backend
	// (send-side faults on the in-process channel are persistent).
	stored, degraded, err := s.putWait(s.key(t.seq), t.data, t.put)
	if err != nil {
		return nil, fmt.Errorf("offload: offload %q (%s): %w", t.ref.Name, t.ref.Kind, err)
	}
	s.mu.Lock()
	e := &entry{seq: t.seq, size: stored, degraded: degraded}
	s.entries[t.ref] = e
	s.hostBytes += stored
	s.mu.Unlock()
	if t.mask != nil {
		t.ref.Mask = t.mask
	}
	t.ref.T = nil
	s.counters.Offloaded.Add(1)
	s.counters.BytesOffloaded.Add(int64(stored))
	return e, nil
}

// commitEncoded pushes one encoded frame to the transport backend,
// records the entry, and releases the ref's tensor (attaching the BRC
// mask when present). The scheduler calls commitIssue/commitWait in
// strict submission order so the backend sees the same Put sequence as
// this synchronous path.
func (s *Store) commitEncoded(ref *nn.ActRef, data []byte, mask []bool) (*entry, error) {
	return s.commitWait(s.commitIssue(ref, data, mask))
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
		return ticket{s.fallbackT().PutAsync(key, data, transport.Retry{}), true}
	}
	return ticket{s.transportOf().PutAsync(key, data, s.retry()), false}
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

// current reports whether e is still ref's resident entry — false once
// it was restored, or a recompute hook rebuilt the store and replaced it.
func (s *Store) current(ref *nn.ActRef, e *entry) bool {
	cur, ok := s.lookup(ref)
	return ok && cur == e
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
// degraded entry's frame was never sent to the wire — its only copy
// lives in the breaker's fallback, which answers instead. Responses
// complete in issue order (the wire protocol is FIFO), so the caller
// must readWait tickets in the order it issued them.
func (s *Store) readIssue(e *entry, ref *nn.ActRef) ticket {
	coef := ref != nil && s.CoefPlan != nil && s.CoefPlan(ref)
	if e.degraded {
		s.counters.Degraded.Add(1)
		return ticket{s.fallbackT().GetAsync(s.key(e.seq), transport.Retry{}, coef), true}
	}
	return ticket{s.transportOf().GetAsync(s.key(e.seq), s.retry(), coef), false}
}

// readWait completes an issued read, returning the verified frame
// without decoding it and applying the breaker bookkeeping. It does not
// mutate the store, so a failure leaves the entry untouched.
func (s *Store) readWait(t ticket) (*frame.Frame, error) {
	f, err := t.h.GetResult()
	if !t.degraded && s.breakerActive() {
		if err == nil {
			s.brk.onSuccess()
		} else if errors.Is(err, transport.ErrStoreUnavailable) {
			// The failure still surfaces — the bytes are gone with the
			// store, so only the recompute policy can recover this ref —
			// but it opens the breaker so the re-offloads that follow
			// degrade instead of beating on a dead wire.
			s.brk.onFailure()
		}
	}
	return f, err
}

// read pulls the entry's bytes back through the transport layer (with
// the policy's retry schedule): the synchronous compose of readIssue
// and readWait. The coefficient-plan flag rides along so a networked
// backend can count compressed-domain serving separately.
func (s *Store) read(e *entry, ref *nn.ActRef) (*frame.Frame, error) {
	return s.readWait(s.readIssue(e, ref))
}

// deleteEntry releases the backend copy wherever it lives.
func (s *Store) deleteEntry(e *entry) {
	if e.degraded {
		s.fallbackT().Delete(s.key(e.seq))
		return
	}
	s.transportOf().Delete(s.key(e.seq))
}

// decodeFrame turns a verified frame into the ref's restored form:
// a coefficient plane when the ref is in the coefficient plan and the
// frame carries DCT blocks, the fully decoded tensor otherwise. A frame
// the plan covers but that the codec routed elsewhere (ZVC, BRC) falls
// back to the full decode — capability never overrides the Table II
// policy. Decode errors surface for the recovery policy either way.
func (s *Store) decodeFrame(ref *nn.ActRef, f *frame.Frame) (*tensor.Tensor, *freqdomain.Plane, error) {
	if s.CoefPlan != nil && s.CoefPlan(ref) {
		pl, err := s.pipeline().DecodeCoefficients(f)
		if err == nil {
			return nil, pl, nil
		}
		if !errors.Is(err, codec.ErrNoCoefficients) {
			return nil, nil, err
		}
	}
	t, err := s.pipeline().Decode(f)
	return t, nil, err
}

// fetch reads and decodes the entry into a staged tensor or plane.
func (s *Store) fetch(e *entry, ref *nn.ActRef) (*tensor.Tensor, *freqdomain.Plane, error) {
	f, err := s.read(e, ref)
	if err != nil {
		return nil, nil, err
	}
	return s.decodeFrame(ref, f)
}

// finishRestore attaches the staged tensor or coefficient plane (both
// nil for BRC refs, whose mask is already attached) and frees the
// backend copy (best-effort — a failed delete only leaks backend
// memory, never correctness).
func (s *Store) finishRestore(ref *nn.ActRef, e *entry, t *tensor.Tensor, pl *freqdomain.Plane) {
	if t != nil {
		ref.T = t
	}
	if pl != nil {
		ref.Coef = pl
		s.counters.CoefRestores.Add(1)
	}
	s.dropIfCurrent(ref, e)
	s.counters.Restored.Add(1)
}

// dropIfCurrent removes ref's entry if it is still e — a recompute hook
// may have rebuilt the store wholesale, replacing it — and then deletes
// the backend copy.
func (s *Store) dropIfCurrent(ref *nn.ActRef, e *entry) {
	s.mu.Lock()
	current := s.entries[ref] == e
	if current {
		delete(s.entries, ref)
		s.hostBytes -= e.size
	}
	s.mu.Unlock()
	if current {
		s.deleteEntry(e)
	}
}

// recover applies the post-retry recovery policy to a failed restore:
// under PolicyRecompute the hook re-materializes the activation (and
// may rebuild the store); otherwise the typed error is surfaced with
// the entry retained.
func (s *Store) recover(ref *nn.ActRef, e *entry, err error) error {
	if s.Recovery.Policy == PolicyRecompute && s.Recovery.Recompute != nil {
		if rerr := s.Recovery.Recompute(ref); rerr != nil {
			return fmt.Errorf("offload: restore %q (%s): %w: recompute failed: %v (original: %v)",
				ref.Name, ref.Kind, ErrCorrupted, rerr, err)
		}
		s.counters.Recomputed.Add(1)
		// The hook may have rebuilt the store wholesale; drop this
		// ref's stale entry if it survived.
		s.dropIfCurrent(ref, e)
		return nil
	}
	// Entry retained: the only copy of the activation must not be
	// destroyed by a failed decode.
	return fmt.Errorf("offload: restore %q (%s): %w", ref.Name, ref.Kind, err)
}

// Restore decompresses the stored activation back into ref.T (no-op for
// BRC refs, whose mask is already attached) and frees the backend copy —
// but only after the frame's CRC is verified and the payload decodes, so
// a failed restore always leaves the compressed copy intact. On
// corruption the configured RecoveryPolicy is consulted: PolicyFail
// returns a typed error, PolicyRetry re-reads the transport, and
// PolicyRecompute invokes the Recovery.Recompute hook.
func (s *Store) Restore(ref *nn.ActRef) error {
	e, ok := s.lookup(ref)
	if !ok {
		return fmt.Errorf("offload: restore %q (%s): %w", ref.Name, ref.Kind, ErrNotStored)
	}
	t, pl, err := s.fetch(e, ref)
	if err != nil {
		return s.recover(ref, e, err)
	}
	s.finishRestore(ref, e, t, pl)
	return nil
}

// OffloadAll offloads every unique saved ref of a network (forward-pass
// end), returning the original and compressed byte totals.
func (s *Store) OffloadAll(refs []*nn.ActRef) (orig, comp int, err error) {
	seen := map[*nn.ActRef]bool{}
	for _, ref := range refs {
		if seen[ref] || ref.T == nil {
			continue
		}
		seen[ref] = true
		orig += ref.T.Bytes()
		if err := s.Offload(ref); err != nil {
			return orig, s.HostBytes(), err
		}
	}
	return orig, s.HostBytes(), nil
}

// RestoreAll restores every stored ref in deterministic reverse-offload
// order — the order the backward prefetcher would request them — so peak
// memory and error attribution are identical across runs regardless of
// Go map iteration.
func (s *Store) RestoreAll() error {
	// Always restore the highest-sequence resident entry next. Re-scanning
	// after every restore keeps the sweep correct even when a recompute
	// hook rebuilds the store with fresh refs mid-sweep.
	for {
		s.mu.Lock()
		var next *nn.ActRef
		bestSeq := -1
		for ref, e := range s.entries {
			if e.seq > bestSeq {
				bestSeq, next = e.seq, ref
			}
		}
		s.mu.Unlock()
		if next == nil {
			return nil
		}
		if err := s.Restore(next); err != nil {
			return err
		}
	}
}

// Reset drops every entry, releasing the backend copies (counters and
// the offload sequence are preserved). Used by the recompute path to
// discard a stale step before re-offloading freshly materialized
// activations.
func (s *Store) Reset() {
	s.mu.Lock()
	old := s.entries
	s.entries = map[*nn.ActRef]*entry{}
	s.hostBytes = 0
	s.mu.Unlock()
	for _, e := range old {
		s.deleteEntry(e)
	}
}

// Close releases the transport backend (the in-process backend's
// buffers, or a network client's connection) and the breaker's degraded
// fallback, when one was ever built.
func (s *Store) Close() error {
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

// HostBytes returns the total framed footprint currently resident.
func (s *Store) HostBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hostBytes
}
