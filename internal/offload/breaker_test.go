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

func breakerStore(wire *flakyWire) *Store {
	s := NewStore(quant.OptL())
	s.Transport = wire
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

// TestBreakerTripsAndDegrades: with the wire dead, the first offload
// opens the breaker and itself degrades to the local fallback, and so
// does everything after. Restores of degraded frames reconstruct the
// exact tensor a healthy run would, and never touch the wire.
func TestBreakerTripsAndDegrades(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire)
	wire.setDead(true)

	ref := denseRef(42)
	want := healthyReconstruction(t, 42)
	if err := s.Offload(ref); err != nil {
		t.Fatalf("first failed offload should degrade, not fail: %v", err)
	}
	if !s.Tripped() {
		t.Fatal("breaker not open after a whole-op failure")
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

// TestBreakerProbesAndRecovers: after probeAfter degraded ops the
// breaker half-opens and re-tries the wire; once the store is back the
// probe succeeds, the breaker closes, and traffic returns to the wire.
// Frames stored degraded remain readable (they are pinned to the
// fallback).
func TestBreakerProbesAndRecovers(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire)
	wire.setDead(true)

	// The first failure trips and degrades; probeAfter more ops serve
	// probation (still degraded, wire untouched).
	refs := []*nn.ActRef{denseRef(0)}
	if err := s.Offload(refs[0]); err != nil {
		t.Fatal(err)
	}
	before := wire.wirePuts()
	for i := 1; i <= probeAfter; i++ {
		refs = append(refs, denseRef(uint64(i)))
		if err := s.Offload(refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if wire.wirePuts() != before {
		t.Fatal("probation ops touched the wire")
	}

	// Server comes back; the next op is the half-open probe and wins.
	wire.setDead(false)
	probe := denseRef(probeAfter + 1)
	if err := s.Offload(probe); err != nil {
		t.Fatal(err)
	}
	if s.Tripped() {
		t.Fatal("breaker still open after a successful probe")
	}
	if wire.wirePuts() != before+1 {
		t.Fatalf("probe did not reach the wire: %d puts", wire.wirePuts())
	}

	// Every frame restores from wherever it lives: the degraded ones from
	// the fallback, the probe's from the wire.
	for _, ref := range append(refs, probe) {
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
	if got := s.Stats().Degraded; got < probeAfter+1 {
		t.Fatalf("Degraded = %d, want >= %d", got, probeAfter+1)
	}
}

// TestBreakerFailedProbeRestartsProbation: a probe against a
// still-dead store re-opens the breaker and degrades the probing op.
func TestBreakerFailedProbeRestartsProbation(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire)
	wire.setDead(true)

	for i := 0; i <= probeAfter; i++ { // trips, then probation
		if err := s.Offload(denseRef(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	before := wire.wirePuts()
	if err := s.Offload(denseRef(probeAfter + 1)); err != nil { // probe: fails, degrades
		t.Fatalf("failed probe must degrade, not error: %v", err)
	}
	if wire.wirePuts() != before+1 {
		t.Fatal("probe did not reach the wire")
	}
	if !s.Tripped() {
		t.Fatal("breaker closed after a failed probe")
	}
	if got := s.Stats().Degraded; got != probeAfter+2 {
		t.Fatalf("Degraded = %d, want %d", got, probeAfter+2)
	}
	// Probation restarted: the next op degrades without a wire attempt.
	if err := s.Offload(denseRef(probeAfter + 2)); err != nil {
		t.Fatal(err)
	}
	if wire.wirePuts() != before+1 {
		t.Fatal("probation after a failed probe touched the wire")
	}
}

// TestBreakerDisabled: with NoDegrade, wire failures surface on every
// op and nothing degrades.
func TestBreakerDisabled(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire)
	s.NoDegrade = true
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
// surfaces its error (only recompute can rebuild those bytes) but opens
// the breaker, so the re-offloads that follow degrade.
func TestBreakerGetFailureAdvancesBreaker(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire)
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
	s.brk.mu.Lock()
	defer s.brk.mu.Unlock()
	return s.breakerActive() && s.brk.open
}
