package offload

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"jpegact/internal/faults"
	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/transport"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// sendRecorder keeps a copy of every payload crossing Send, passthrough
// otherwise.
type sendRecorder struct{ sent [][]byte }

func (r *sendRecorder) Send(b []byte) []byte {
	r.sent = append(r.sent, append([]byte(nil), b...))
	return b
}
func (r *sendRecorder) Recv(b []byte) []byte { return b }

// atWorkers sets the worker count for the rest of the test: an engine
// sizes its encode pool from it when it is built.
func atWorkers(t *testing.T, n int) {
	prev := parallel.SetWorkers(n)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
}

func engineRefs(n int) []*nn.ActRef {
	refs := make([]*nn.ActRef, n)
	for i := range refs {
		refs[i] = denseRef(uint64(100 + i))
	}
	return refs
}

// TestEngineAsyncCommitsInSubmissionOrder is the determinism keystone:
// whatever the worker pool does, the channel must see frames in exactly
// the sequence Store.OffloadAll sends them — byte-identical, same order
// — so injected fault patterns are reproducible.
func TestEngineAsyncCommitsInSubmissionOrder(t *testing.T) {
	const n = 8
	recAll := &sendRecorder{}
	sAll := NewStore(quant.OptL())
	sAll.Channel = recAll
	if _, _, err := sAll.OffloadAll(engineRefs(n)); err != nil {
		t.Fatal(err)
	}

	rec := &sendRecorder{}
	s := NewStore(quant.OptL())
	s.Channel = rec
	atWorkers(t, 4)
	eng := NewEngine(s, EngineConfig{})
	defer eng.Close()
	eng.BeginStep()
	refs := engineRefs(n)
	for _, ref := range refs {
		eng.Offload(ref)
	}
	if _, _, err := eng.EndForward(nil); err != nil {
		t.Fatal(err)
	}
	if len(rec.sent) != n {
		t.Fatalf("%d sends, want %d", len(rec.sent), n)
	}
	for i := range refs {
		if seq, ok := s.Seq(refs[i]); !ok || seq != i {
			t.Fatalf("ref %d has seq %d (ok=%v); commits out of submission order", i, seq, ok)
		}
		if !bytes.Equal(recAll.sent[i], rec.sent[i]) {
			t.Fatalf("send %d differs from Store.OffloadAll's", i)
		}
	}
	if err := eng.EndStep(); err != nil {
		t.Fatal(err)
	}
}

// TestEnginePrefetchBitExact holds both restore configurations of the
// engine — a lookahead window and strictly on demand (Prefetch 0) — at
// 1, 2 and 4 workers, to the store's own Offload and Restore: the same
// frames cross the channel in the same order and every restored tensor
// is bit-identical.
func TestEnginePrefetchBitExact(t *testing.T) {
	const n = 6
	want := make([]*tensor.Tensor, n)
	recRef := &sendRecorder{}
	sRef := NewStore(quant.OptL())
	sRef.Channel = recRef
	for i, ref := range engineRefs(n) {
		if err := sRef.Offload(ref); err != nil {
			t.Fatal(err)
		}
		if err := sRef.Restore(ref); err != nil {
			t.Fatal(err)
		}
		want[i] = ref.T
	}

	for _, c := range []struct {
		name string
		cfg  EngineConfig
	}{
		{"prefetch", EngineConfig{Prefetch: 2}},
		{"ondemand", EngineConfig{}},
	} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s-w%d", c.name, workers), func(t *testing.T) {
				rec := &sendRecorder{}
				s := NewStore(quant.OptL())
				s.Channel = rec
				atWorkers(t, workers)
				eng := NewEngine(s, c.cfg)
				defer eng.Close()
				eng.BeginStep()
				refs := engineRefs(n)
				for _, ref := range refs {
					eng.Offload(ref)
				}
				if _, _, err := eng.EndForward(nil); err != nil {
					t.Fatal(err)
				}
				if err := eng.PrepareBackward(); err != nil {
					t.Fatal(err)
				}
				for i := n - 1; i >= 0; i-- {
					if err := eng.Restore(refs[i]); err != nil {
						t.Fatal(err)
					}
					for j := range refs[i].T.Data {
						if refs[i].T.Data[j] != want[i].Data[j] {
							t.Fatalf("ref %d elem %d: restore differs from Store.Restore's", i, j)
						}
					}
				}
				if err := eng.EndStep(); err != nil {
					t.Fatal(err)
				}
				if len(rec.sent) != n {
					t.Fatalf("%d sends, want %d", len(rec.sent), n)
				}
				for i := range rec.sent {
					if !bytes.Equal(rec.sent[i], recRef.sent[i]) {
						t.Fatalf("send %d differs from Store.Offload's", i)
					}
				}
				st := eng.Stats()
				if served := st.PrefetchHits + st.PrefetchWaits; c.cfg.Prefetch > 0 && served != n {
					t.Fatalf("prefetch served %d+%d restores, want %d", st.PrefetchHits, st.PrefetchWaits, n)
				}
				if c.cfg.Prefetch == 0 && st.DemandFetches != n {
					t.Fatalf("%d demand fetches, want %d", st.DemandFetches, n)
				}
				if s.Stored() != 0 {
					t.Fatalf("%d entries left", s.Stored())
				}
			})
		}
	}
}

// TestEngineOnDemandRestores covers Prefetch<=0: restores fall back to
// the synchronous path one by one.
func TestEngineOnDemandRestores(t *testing.T) {
	s := NewStore(quant.OptL())
	eng := NewEngine(s, EngineConfig{})
	defer eng.Close()
	eng.BeginStep()
	refs := engineRefs(3)
	for _, ref := range refs {
		eng.Offload(ref)
	}
	if _, _, err := eng.EndForward(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.PrepareBackward(); err != nil {
		t.Fatal(err)
	}
	for i := len(refs) - 1; i >= 0; i-- {
		if err := eng.Restore(refs[i]); err != nil {
			t.Fatal(err)
		}
		if refs[i].T == nil {
			t.Fatalf("ref %d not restored", i)
		}
	}
	if st := eng.Stats(); st.DemandFetches != 3 || st.PrefetchHits != 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := eng.EndStep(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAsyncRecompute corrupts one frame so the prefetcher stages
// an error under PolicyRecompute; the consuming Restore must flush the
// prefetch plan — every entry read exactly once, whatever the timing —
// and return the typed error with every unrestored entry still resident,
// for the trainer's replay to Reset.
func TestEngineAsyncRecompute(t *testing.T) {
	ch := &countRecv{inj: faults.New(faults.Config{Seed: 21})}
	s := NewStore(quant.OptL())
	s.Channel = ch
	s.Recovery = Recovery{Policy: PolicyRecompute}
	atWorkers(t, 2)
	eng := NewEngine(s, EngineConfig{Prefetch: 2})
	defer eng.Close()
	eng.BeginStep()
	refs := engineRefs(5)
	for _, ref := range refs {
		eng.Offload(ref)
	}
	if _, _, err := eng.EndForward(nil); err != nil {
		t.Fatal(err)
	}
	// The first Recv the prefetcher issues (the highest-seq entry) is
	// corrupted.
	ch.inj.ForceNextRecv(1)
	if err := eng.PrepareBackward(); err != nil {
		t.Fatal(err)
	}
	err := eng.Restore(refs[len(refs)-1])
	if !errors.Is(err, frame.ErrChecksum) {
		t.Fatalf("want the typed checksum error, got %v", err)
	}
	eng.Abort()
	if ch.recvs != len(refs) {
		t.Fatalf("%d reads, want the whole plan (%d) read once", ch.recvs, len(refs))
	}
	if st := s.Stats(); st.Recomputed != 0 || st.Corrupted != 1 || st.Restored != 0 {
		t.Fatalf("stats %+v", st)
	}
	if s.Stored() != len(refs) {
		t.Fatalf("%d entries left, want all %d retained", s.Stored(), len(refs))
	}
	s.Reset()
	if s.Stored() != 0 || s.HostBytes() != 0 {
		t.Fatalf("Reset left %d entries, %d bytes", s.Stored(), s.HostBytes())
	}
}

// countRecv counts the reads an injector's channel carries.
type countRecv struct {
	inj   *faults.Injector
	recvs int
}

func (c *countRecv) Send(b []byte) []byte { return c.inj.Send(b) }
func (c *countRecv) Recv(b []byte) []byte {
	c.recvs++
	return c.inj.Recv(b)
}

// dropOnce loses the first transfer entirely (nil Recv), then passes
// through.
type dropOnce struct{ fired bool }

func (c *dropOnce) Send(b []byte) []byte { return b }
func (c *dropOnce) Recv(b []byte) []byte {
	if c.fired {
		return b
	}
	c.fired = true
	return nil
}

// TestEngineDroppedTransferTyped: a dropped transfer discovered by the
// prefetcher surfaces as ErrDropped under PolicyFail and is counted
// distinctly from corruption retries.
func TestEngineDroppedTransferTyped(t *testing.T) {
	s := NewStore(quant.OptL())
	s.Channel = &dropOnce{}
	eng := NewEngine(s, EngineConfig{Prefetch: 1})
	defer eng.Close()
	eng.BeginStep()
	refs := engineRefs(2)
	for _, ref := range refs {
		eng.Offload(ref)
	}
	if _, _, err := eng.EndForward(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.PrepareBackward(); err != nil {
		t.Fatal(err)
	}
	err := eng.Restore(refs[1])
	if !errors.Is(err, transport.ErrDropped) {
		t.Fatalf("want ErrDropped, got %v", err)
	}
	eng.Abort()
	if st := s.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped count %d, stats %+v", st.Dropped, st)
	}
	// The host copy survived; a later sync restore succeeds.
	if err := s.RestoreAll(); err != nil {
		t.Fatal(err)
	}
}

// Seq returns the offload sequence number of ref, and whether it is
// currently stored.
func (s *Store) Seq(ref *nn.ActRef) (int, bool) {
	e, ok := s.lookup(ref)
	if !ok {
		return 0, false
	}
	return e.seq, true
}
