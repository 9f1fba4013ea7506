package offload

import (
	"errors"
	"sync"
	"testing"

	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// flakyWire is a Transport whose wire can be declared dead or alive:
// while dead every op fails with ErrStoreUnavailable (the whole-op
// verdict a real NetClient reports after its retry schedule); while
// alive it is a plain in-memory store. It stands in for a NetClient so
// breaker tests need no sockets.
type flakyWire struct {
	mu   sync.Mutex
	dead bool
	bufs map[uint64][]byte
	puts int // wire puts attempted (dead or alive)
}

func newFlakyWire() *flakyWire { return &flakyWire{bufs: map[uint64][]byte{}} }

func (w *flakyWire) setDead(d bool) {
	w.mu.Lock()
	w.dead = d
	w.mu.Unlock()
}

func (w *flakyWire) wirePuts() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.puts
}

func (w *flakyWire) PutAsync(key uint64, data []byte, _ transport.Retry) *transport.Pending {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.puts++
	if w.dead {
		return transport.Resolved(0, nil, transport.ErrStoreUnavailable)
	}
	w.bufs[key] = append([]byte(nil), data...)
	return transport.Resolved(len(data), nil, nil)
}

func (w *flakyWire) GetAsync(key uint64, _ transport.Retry, _ bool) *transport.Pending {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return transport.Resolved(0, nil, transport.ErrStoreUnavailable)
	}
	b, ok := w.bufs[key]
	if !ok {
		return transport.Resolved(0, nil, transport.ErrNotFound)
	}
	f, err := frame.DecodeFrame(b)
	return transport.Resolved(0, f, err)
}

func (w *flakyWire) Depth() int { return 1 }

func (w *flakyWire) Delete(key uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.bufs, key)
	return nil
}

func (w *flakyWire) Close() error { return nil }

func breakerStore(wire *flakyWire, cfg BreakerConfig) *Store {
	s := NewStore(quant.OptL())
	s.Transport = wire
	s.Breaker = cfg
	return s
}

// healthyReconstruction runs seed's tensor through a default in-process
// store — the reference a degraded reconstruction must match bit-for-bit.
func healthyReconstruction(t *testing.T, seed uint64) *tensor.Tensor {
	t.Helper()
	ref := denseRef(seed)
	s := NewStore(quant.OptL())
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(ref); err != nil {
		t.Fatal(err)
	}
	return ref.T
}

// TestBreakerTripsAndDegrades: with the wire dead, the first
// FailureThreshold-1 offloads fail outright (the recovery policy's
// domain); the one that crosses the threshold — and everything after —
// degrades to the local fallback and succeeds. Restores of degraded
// frames reconstruct the exact tensor a healthy run would, and never
// touch the wire.
func TestBreakerTripsAndDegrades(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire, BreakerConfig{FailureThreshold: 3, ProbeAfter: 100})
	wire.setDead(true)

	for i := 0; i < 2; i++ {
		err := s.Offload(denseRef(uint64(10 + i)))
		if !errors.Is(err, transport.ErrStoreUnavailable) {
			t.Fatalf("pre-threshold offload %d: want ErrStoreUnavailable, got %v", i, err)
		}
	}
	if s.Tripped() {
		t.Fatal("breaker open before the threshold")
	}

	// Third failure crosses the threshold: this op itself degrades.
	ref := denseRef(42)
	want := healthyReconstruction(t, 42)
	if err := s.Offload(ref); err != nil {
		t.Fatalf("threshold-crossing offload should degrade, not fail: %v", err)
	}
	if !s.Tripped() {
		t.Fatal("breaker not open after threshold failures")
	}
	if got := s.Stats().Degraded; got != 1 {
		t.Fatalf("Degraded = %d, want 1", got)
	}

	// Further offloads skip the wire entirely.
	before := wire.wirePuts()
	ref2 := denseRef(43)
	if err := s.Offload(ref2); err != nil {
		t.Fatal(err)
	}
	if wire.wirePuts() != before {
		t.Fatal("open breaker still touched the wire")
	}

	// Degraded restore: bit-identical to the healthy-path reconstruction.
	if err := s.Restore(ref); err != nil {
		t.Fatalf("restore of degraded frame: %v", err)
	}
	if tensor.MSE(want, ref.T) != 0 {
		t.Fatal("degraded path reconstruction differs from healthy path")
	}
	if err := s.Restore(ref2); err != nil {
		t.Fatal(err)
	}
	if s.Stored() != 0 || s.HostBytes() != 0 {
		t.Fatalf("store not drained: %d entries, %d bytes", s.Stored(), s.HostBytes())
	}
}

// TestBreakerProbesAndRecovers: after ProbeAfter degraded ops the
// breaker half-opens and re-tries the wire; once the store is back the
// probe succeeds, the breaker closes, and traffic returns to the wire.
// Frames stored degraded remain readable (they are pinned to the
// fallback).
func TestBreakerProbesAndRecovers(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire, BreakerConfig{FailureThreshold: 1, ProbeAfter: 2})
	wire.setDead(true)

	// First failure trips immediately (threshold 1) and degrades.
	r1 := denseRef(1)
	if err := s.Offload(r1); err != nil {
		t.Fatal(err)
	}
	if !s.Tripped() {
		t.Fatal("threshold 1 should trip on the first failure")
	}
	// Two more ops serve probation (still degraded, wire untouched).
	r2, r3 := denseRef(2), denseRef(3)
	before := wire.wirePuts()
	if err := s.Offload(r2); err != nil {
		t.Fatal(err)
	}
	if err := s.Offload(r3); err != nil {
		t.Fatal(err)
	}
	if wire.wirePuts() != before {
		t.Fatal("probation ops touched the wire")
	}

	// Server comes back; the next op is the half-open probe and wins.
	wire.setDead(false)
	r4 := denseRef(4)
	if err := s.Offload(r4); err != nil {
		t.Fatal(err)
	}
	if s.Tripped() {
		t.Fatal("breaker still open after a successful probe")
	}
	if wire.wirePuts() != before+1 {
		t.Fatalf("probe did not reach the wire: %d puts", wire.wirePuts())
	}

	// Every frame restores from wherever it lives: r1..r3 from the
	// fallback, r4 from the wire.
	for _, ref := range []*nn.ActRef{r1, r2, r3, r4} {
		if err := s.Restore(ref); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if ref.T == nil {
			t.Fatal("restore left no tensor")
		}
	}
	if s.Stored() != 0 {
		t.Fatalf("%d entries left", s.Stored())
	}
	if got := s.Stats().Degraded; got < 3 {
		t.Fatalf("Degraded = %d, want >= 3", got)
	}
}

// TestBreakerFailedProbeRestartsProbation: a probe against a
// still-dead store re-opens the breaker and degrades the probing op.
func TestBreakerFailedProbeRestartsProbation(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire, BreakerConfig{FailureThreshold: 1, ProbeAfter: 1})
	wire.setDead(true)

	if err := s.Offload(denseRef(1)); err != nil { // trips, degrades
		t.Fatal(err)
	}
	if err := s.Offload(denseRef(2)); err != nil { // probation op
		t.Fatal(err)
	}
	before := wire.wirePuts()
	if err := s.Offload(denseRef(3)); err != nil { // probe: fails, degrades
		t.Fatalf("failed probe must degrade, not error: %v", err)
	}
	if wire.wirePuts() != before+1 {
		t.Fatal("probe did not reach the wire")
	}
	if !s.Tripped() {
		t.Fatal("breaker closed after a failed probe")
	}
	if got := s.Stats().Degraded; got != 3 {
		t.Fatalf("Degraded = %d, want 3", got)
	}
}

// TestBreakerDisabled: with the breaker off, wire failures surface on
// every op and nothing degrades.
func TestBreakerDisabled(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire, BreakerConfig{Disabled: true})
	wire.setDead(true)
	for i := 0; i < 5; i++ {
		if err := s.Offload(denseRef(uint64(i))); !errors.Is(err, transport.ErrStoreUnavailable) {
			t.Fatalf("op %d: want ErrStoreUnavailable, got %v", i, err)
		}
	}
	if got := s.Stats().Degraded; got != 0 {
		t.Fatalf("Degraded = %d with breaker disabled", got)
	}
	if s.Tripped() {
		t.Fatal("disabled breaker reports tripped")
	}
}

// TestBreakerGetFailureAdvancesBreaker: a GET that finds the store dead
// surfaces its error (only recompute can rebuild those bytes) but
// counts toward the threshold, so the re-offloads that follow degrade.
func TestBreakerGetFailureAdvancesBreaker(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire, BreakerConfig{FailureThreshold: 1, ProbeAfter: 100})
	ref := denseRef(7)
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	wire.setDead(true)
	if err := s.Restore(ref); !errors.Is(err, transport.ErrStoreUnavailable) {
		t.Fatalf("want ErrStoreUnavailable from restore, got %v", err)
	}
	if !s.Tripped() {
		t.Fatal("get failure did not advance the breaker")
	}
	// The entry is retained (recovery contract) and the next offload
	// degrades instead of failing.
	if s.Stored() != 1 {
		t.Fatalf("entry not retained after failed restore: %d", s.Stored())
	}
	if err := s.Offload(denseRef(8)); err != nil {
		t.Fatalf("offload after tripped-by-get: %v", err)
	}
	if got := s.Stats().Degraded; got == 0 {
		t.Fatal("no degraded ops after trip")
	}
}

// Tripped reports whether the circuit breaker is currently open (new
// offloads are being served degraded from the local fallback).
func (s *Store) Tripped() bool {
	return s.breakerActive() && s.breakerOf().tripped()
}
