package offload

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

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
	refs := engineRefs(n)
	offloadStep(t, eng, refs)
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
	if err := eng.EndStep(); err != nil || s.Stored() != 0 {
		t.Fatalf("EndStep: %v, %d entries left", err, s.Stored())
	}
}

// TestEnginePrefetchBitExact holds the engine at 1, 2 and 4 workers to
// the store's own Offload and the codec's round trip: the same frames
// cross the channel in the same order, every restored tensor is
// bit-identical, and every restore is served by the plan.
func TestEnginePrefetchBitExact(t *testing.T) {
	const n = 6
	want := make([]*tensor.Tensor, n)
	recRef := &sendRecorder{}
	sRef := NewStore(quant.OptL())
	sRef.Channel = recRef
	for i, ref := range engineRefs(n) {
		want[i] = sRef.Codec.Compress(ref.Kind, ref.T).Recovered
		if err := sRef.Offload(ref); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("prefetch-w%d", workers), func(t *testing.T) {
			rec := &sendRecorder{}
			s := NewStore(quant.OptL())
			s.Channel = rec
			atWorkers(t, workers)
			eng := NewEngine(s, EngineConfig{})
			defer eng.Close()
			refs := engineRefs(n)
			offloadStep(t, eng, refs)
			for i := n - 1; i >= 0; i-- {
				if err := eng.Restore(refs[i]); err != nil {
					t.Fatal(err)
				}
				for j := range refs[i].T.Data {
					if refs[i].T.Data[j] != want[i].Data[j] {
						t.Fatalf("ref %d elem %d: restore differs from the codec's round trip", i, j)
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
			if st := eng.Stats(); st.PrefetchHits+st.PrefetchWaits != n {
				t.Fatalf("the plan served %d+%d restores, want %d", st.PrefetchHits, st.PrefetchWaits, n)
			}
			if s.Stored() != 0 {
				t.Fatalf("%d entries left", s.Stored())
			}
		})
	}
}

// offloadStep runs the forward side of one engine step over refs and
// starts the plan: BeginStep, an Offload of each, EndForward,
// PrepareBackward.
func offloadStep(t *testing.T, eng *Engine, refs []*nn.ActRef) {
	t.Helper()
	eng.BeginStep()
	for _, ref := range refs {
		eng.Offload(ref)
	}
	if _, _, err := eng.EndForward(nil); err != nil {
		t.Fatal(err)
	}
	eng.PrepareBackward()
}

// TestDemandFetchesCountRestoresAheadOfThePrefetcher: a consumer that
// asks for a frame past the lookahead window — here the plan's last, as
// the first restore — blocks on a frame the prefetcher has not read, and
// that is the one demand fetch. The prefetcher reads up to it in plan
// order, so every later restore finds its frame read.
func TestDemandFetchesCountRestoresAheadOfThePrefetcher(t *testing.T) {
	const n = 2*lookahead + 1
	s := NewStore(quant.OptL())
	eng := NewEngine(s, EngineConfig{})
	defer eng.Close()
	refs := engineRefs(n)
	offloadStep(t, eng, refs)
	order := []*nn.ActRef{refs[0]}
	for i := n - 1; i > 0; i-- {
		order = append(order, refs[i])
	}
	for _, ref := range order {
		if err := eng.Restore(ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.EndStep(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.DemandFetches != 1 || st.PrefetchHits+st.PrefetchWaits != n {
		t.Fatalf("stats %+v: want 1 demand fetch and %d restores served by the plan", st, n)
	}
}

// truncateNth cuts the nth Recv (from 1; 0 = none) to a prefix, passes
// every other transfer through and counts the Recvs.
type truncateNth struct{ n, recvs int }

func (c *truncateNth) Send(b []byte) []byte { return b }
func (c *truncateNth) Recv(b []byte) []byte {
	if c.recvs++; c.recvs == c.n {
		return b[:len(b)/2]
	}
	return b
}

// TestEndStepFinishesThePlan: a step whose backward never restores one
// resident ref has EndStep finish it from the plan — one channel read,
// its frame verified once. When that read failed, EndStep returns its
// typed error with the entry retained, and reads nothing again.
func TestEndStepFinishesThePlan(t *testing.T) {
	const n, skip = 5, 2
	run := func(ch *truncateNth, policy RecoveryPolicy) (*Store, []*nn.ActRef, error) {
		s := NewStore(quant.OptL())
		s.Channel = ch
		s.Recovery = Recovery{Policy: policy}
		eng := NewEngine(s, EngineConfig{})
		defer eng.Close()
		refs := engineRefs(n)
		refs[skip].Name = "unread"
		offloadStep(t, eng, refs)
		for i := n - 1; i >= 0; i-- {
			if i == skip {
				continue
			}
			if err := eng.Restore(refs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return s, refs, eng.EndStep()
	}

	ch := &truncateNth{}
	s, refs, err := run(ch, PolicyFail)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if refs[skip].T == nil || s.Stored() != 0 || st.Restored != n || ch.recvs != n {
		t.Fatalf("tensor %v, %d entries left, %d restored, %d reads: want the ref restored by %d reads",
			refs[skip].T != nil, s.Stored(), st.Restored, ch.recvs, n)
	}
	if st.BytesVerified != st.BytesOffloaded {
		t.Fatalf("verified %d of %d offloaded bytes: each frame once", st.BytesVerified, st.BytesOffloaded)
	}

	// The plan reads newest first, so the unread ref's is read n-skip'th.
	ch = &truncateNth{n: n - skip}
	s, refs, err = run(ch, PolicyFail)
	if !errors.Is(err, frame.ErrTruncated) && !errors.Is(err, frame.ErrChecksum) {
		t.Fatalf("want the typed truncation or checksum error, got %v", err)
	}
	if !strings.Contains(err.Error(), `restore "unread"`) {
		t.Fatalf("error does not name the unread ref: %v", err)
	}
	if refs[skip].T != nil || s.Stored() != 1 || ch.recvs != n {
		t.Fatalf("tensor %v, %d entries left, %d reads: want the entry retained and no read past the plan's %d",
			refs[skip].T != nil, s.Stored(), ch.recvs, n)
	}
}

// TestRestoreOfAStrangerFlushesThePlan: a restore of a ref the step never
// offloaded fails ErrNotStored like any other restore failure — after
// every resident entry has been read once — and the Abort that follows
// leaves no goroutine behind.
func TestRestoreOfAStrangerFlushesThePlan(t *testing.T) {
	const n = 2 * lookahead
	ch := &truncateNth{}
	s := NewStore(quant.OptL())
	s.Channel = ch
	eng := NewEngine(s, EngineConfig{})
	defer eng.Close()
	before := runtime.NumGoroutine()
	offloadStep(t, eng, engineRefs(n))
	err := eng.Restore(&nn.ActRef{Name: "stranger"})
	if !errors.Is(err, ErrNotStored) || !strings.Contains(err.Error(), `restore "stranger"`) {
		t.Fatalf("want ErrNotStored naming the ref, got %v", err)
	}
	if ch.recvs != n {
		t.Fatalf("%d reads before the error, want the whole plan (%d) read once", ch.recvs, n)
	}
	eng.Abort()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Abort, %d before the step", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	if s.Stored() != n {
		t.Fatalf("%d entries left, want all %d retained", s.Stored(), n)
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
	eng := NewEngine(s, EngineConfig{})
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
	eng.PrepareBackward()
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
	eng := NewEngine(s, EngineConfig{})
	defer eng.Close()
	refs := engineRefs(2)
	offloadStep(t, eng, refs)
	err := eng.Restore(refs[1])
	if !errors.Is(err, transport.ErrDropped) {
		t.Fatalf("want ErrDropped, got %v", err)
	}
	eng.Abort()
	if st := s.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped count %d, stats %+v", st.Dropped, st)
	}
	// The host copy survived; a later step's plan restores it.
	if err := restoreStep(s); err != nil || s.Stored() != 0 {
		t.Fatalf("later step: %v, %d entries left", err, s.Stored())
	}
}
