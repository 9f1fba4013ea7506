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
	if err := restoreStep(s, ref); err != nil {
		t.Fatal(err)
	}
	return ref.T
}

// TestBreakerTripsAndDegrades: with the wire dead, the first offload
// opens the breaker and itself degrades, its frame kept off the wire in
// its store entry, and so does everything after. Restores of degraded frames reconstruct the
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
	if err := restoreStep(s, ref, ref2); err != nil {
		t.Fatalf("restore of degraded frames: %v", err)
	}
	if tensor.MSE(want, ref.T) != 0 {
		t.Fatal("degraded path reconstruction differs from healthy path")
	}
	if s.Stored() != 0 || s.HostBytes() != 0 {
		t.Fatalf("store not drained: %d entries, %d bytes", s.Stored(), s.HostBytes())
	}
}

// TestBreakerProbesAndRecovers: after probeAfter degraded ops the
// breaker half-opens and re-tries the wire; once the store is back the
// probe succeeds, the breaker closes, and traffic returns to the wire.
// Frames stored degraded remain readable (their bytes stay in their
// store entries).
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
	// their store entries, the probe's from the wire.
	refs = append(refs, probe)
	if err := restoreStep(s, refs...); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, ref := range refs {
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
// surfaces its error (only a recompute replay can bring those bytes
// back) but opens the breaker, so the offloads that follow degrade.
func TestBreakerGetFailureAdvancesBreaker(t *testing.T) {
	wire := newFlakyWire()
	s := breakerStore(wire)
	ref := denseRef(7)
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	wire.setDead(true)
	if err := restoreStep(s, ref); !errors.Is(err, transport.ErrStoreUnavailable) {
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
// offloads are kept off the wire, degraded).
func (s *Store) Tripped() bool {
	s.brk.mu.Lock()
	defer s.brk.mu.Unlock()
	return s.breakerActive() && s.brk.open
}

// countingWire is a flakyWire that also counts the GETs and DELETEs it
// is asked for, dead or alive.
type countingWire struct {
	*flakyWire
	gets, deletes int
}

func (w *countingWire) GetAsync(key uint64, r transport.Retry, coef bool) *transport.Pending {
	w.mu.Lock()
	w.gets++
	w.mu.Unlock()
	return w.flakyWire.GetAsync(key, r, coef)
}

func (w *countingWire) Delete(key uint64) error {
	w.mu.Lock()
	w.deletes++
	w.mu.Unlock()
	return w.flakyWire.Delete(key)
}

// TestDegradedFrameNeverReachesABackend: a frame the breaker keeps off
// a dead wire is read back and dropped from its entry — restore, Reset
// and Close ask the wire for nothing — and each degraded offload and
// restore counts once.
func TestDegradedFrameNeverReachesABackend(t *testing.T) {
	wire := &countingWire{flakyWire: newFlakyWire()}
	s := NewStore(quant.OptL())
	s.Transport = wire
	wire.setDead(true)

	degraded := func(want uint64) {
		t.Helper()
		if got := s.Stats().Degraded; got != want {
			t.Fatalf("Degraded = %d, want %d", got, want)
		}
	}
	a, b := denseRef(42), denseRef(43)
	for _, ref := range []*nn.ActRef{a, b} {
		if err := s.Offload(ref); err != nil {
			t.Fatal(err)
		}
	}
	degraded(2) // the failed PUT, then the skipped issue
	if err := restoreStep(s, a, b); err != nil {
		t.Fatal(err)
	}
	degraded(4) // one per degraded restore
	for _, seed := range []uint64{44, 45} {
		if err := s.Offload(denseRef(seed)); err != nil {
			t.Fatal(err)
		}
	}
	degraded(6)
	s.Reset()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := wire.wirePuts(); got != 1 {
		t.Fatalf("wire PUTs = %d, want 1 (the one that tripped the breaker)", got)
	}
	wire.mu.Lock()
	gets, deletes := wire.gets, wire.deletes
	wire.mu.Unlock()
	if gets != 0 || deletes != 0 {
		t.Fatalf("wire saw %d GETs and %d DELETEs of degraded frames, want none", gets, deletes)
	}
}

// TestDegradedBytesMatchHealthy: a degraded entry accounts the frame it
// keeps, not the failed PUT's count — the resident footprint and the
// offloaded bytes equal a healthy in-process store's for the same refs.
func TestDegradedBytesMatchHealthy(t *testing.T) {
	wire := newFlakyWire()
	degraded := breakerStore(wire)
	wire.setDead(true)
	healthy := NewStore(quant.OptL())
	for _, s := range []*Store{degraded, healthy} {
		for _, seed := range []uint64{42, 43} {
			if err := s.Offload(denseRef(seed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !degraded.Tripped() {
		t.Fatal("breaker not open")
	}
	want := healthy.HostBytes()
	if want == 0 {
		t.Fatal("healthy store holds no bytes")
	}
	if got := degraded.HostBytes(); got != want {
		t.Fatalf("degraded HostBytes = %d, healthy %d", got, want)
	}
	if got, want := degraded.Stats().BytesOffloaded, healthy.Stats().BytesOffloaded; got != want {
		t.Fatalf("degraded BytesOffloaded = %d, healthy %d", got, want)
	}
}
