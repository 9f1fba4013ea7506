package offload

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/faults"
	"jpegact/internal/frame"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/netstore"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func denseRef(seed uint64) *nn.ActRef {
	r := tensor.NewRNG(seed)
	x := data.ActivationTensor(r, 2, 4, 16, 16, 0.5, 1.0)
	return &nn.ActRef{Name: "act", Kind: compress.KindConv, T: x}
}

func TestOffloadRestoreDense(t *testing.T) {
	s := NewStore(quant.OptL())
	ref := denseRef(1)
	orig := ref.T.Clone()
	origBytes := ref.T.Bytes()

	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	if ref.T != nil {
		t.Fatal("tensor not released after offload")
	}
	if s.HostBytes() <= 0 || s.HostBytes() >= origBytes {
		t.Fatalf("host bytes %d vs original %d", s.HostBytes(), origBytes)
	}
	if err := restoreStep(s, ref); err != nil {
		t.Fatal(err)
	}
	if ref.T == nil || ref.T.Shape != orig.Shape {
		t.Fatal("restore failed")
	}
	if s.HostBytes() != 0 || s.Stored() != 0 {
		t.Fatalf("store not drained: %d bytes, %d entries", s.HostBytes(), s.Stored())
	}
	if e := tensor.L2Error(orig, ref.T); e > 0.01 {
		t.Fatalf("restored error %v", e)
	}
	st := s.Stats()
	if st.Offloaded != 1 || st.Restored != 1 || st.Corrupted != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesVerified <= 0 || st.BytesVerified != st.BytesOffloaded {
		t.Fatalf("verified %d vs offloaded %d bytes", st.BytesVerified, st.BytesOffloaded)
	}
}

func TestOffloadRestoreMatchesFunctionalMethod(t *testing.T) {
	// The store must reconstruct exactly what the functional JPEG-ACT
	// method produces (same pipeline, same DQT) — the property the
	// recompute recovery path's bit-exactness rests on.
	ref := denseRef(2)
	orig := ref.T.Clone()
	m := compress.NewJPEGAct(quant.Fixed(quant.OptL()))
	want := codec.For(m, 0).Compress(compress.KindConv, orig).Recovered

	s := NewStore(quant.OptL())
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	if err := restoreStep(s, ref); err != nil {
		t.Fatal(err)
	}
	if tensor.MSE(want, ref.T) != 0 {
		t.Fatal("store and functional method disagree")
	}
}

func TestOffloadBRC(t *testing.T) {
	r := tensor.NewRNG(3)
	x := data.ActivationTensor(r, 1, 2, 16, 16, 0.5, 1.0)
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	wantMask := make([]bool, x.Elems())
	for i, v := range x.Data {
		wantMask[i] = v > 0
	}
	ref := &nn.ActRef{Name: "relu", Kind: compress.KindReLUToOther, T: x}
	s := NewStore(quant.OptH())
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	if ref.T != nil || ref.Mask == nil {
		t.Fatal("BRC path must keep only the mask")
	}
	for i := range wantMask {
		if ref.Mask[i] != wantMask[i] {
			t.Fatalf("mask bit %d wrong", i)
		}
	}
	if err := restoreStep(s, ref); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadSparseAndSmall(t *testing.T) {
	r := tensor.NewRNG(4)
	// Small tensor (W < 8) falls to SFPR+ZVC even for the conv kind.
	x := tensor.New(1, 2, 4, 4)
	x.FillNormal(r, 0, 1)
	ref := &nn.ActRef{Name: "small", Kind: compress.KindConv, T: x}
	orig := x.Clone()
	s := NewStore(quant.OptH())
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	if err := restoreStep(s, ref); err != nil {
		t.Fatal(err)
	}
	if e := tensor.L2Error(orig, ref.T); e > 0.05 {
		t.Fatalf("small tensor error %v", e)
	}
}

func TestOffloadErrors(t *testing.T) {
	s := NewStore(quant.OptL())
	ref := denseRef(5)
	if err := restoreStep(s, &nn.ActRef{Name: "never"}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("restore before offload: %v", err)
	}
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	if err := s.Offload(ref); err == nil {
		t.Fatal("double offload accepted")
	}
	empty := &nn.ActRef{Name: "nil"}
	if err := s.Offload(empty); !errors.Is(err, ErrNotStored) {
		t.Fatalf("nil tensor offload: %v", err)
	}
}

// truncateOnce cuts the first Recv to a prefix, then passes through.
type truncateOnce struct{ fired bool }

func (c *truncateOnce) Send(b []byte) []byte { return b }
func (c *truncateOnce) Recv(b []byte) []byte {
	if c.fired {
		return b
	}
	c.fired = true
	return b[:len(b)/2]
}

func TestRestoreRetainsEntryOnError(t *testing.T) {
	// Regression for the lose-on-error bug: a failed restore (here, a
	// truncated transfer under PolicyFail) must leave the compressed host
	// copy intact, so the activation is not permanently destroyed.
	s := NewStore(quant.OptL())
	s.Channel = &truncateOnce{}
	ref := denseRef(6)
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	hostBytes := s.HostBytes()

	err := restoreStep(s, ref)
	if !errors.Is(err, frame.ErrTruncated) && !errors.Is(err, frame.ErrChecksum) {
		t.Fatalf("want truncation/checksum error, got %v", err)
	}
	if !strings.Contains(err.Error(), `restore "act"`) {
		t.Fatalf("error does not name the ref: %v", err)
	}
	if s.Stored() != 1 || s.HostBytes() != hostBytes {
		t.Fatalf("entry lost after failed restore: %d entries, %d bytes", s.Stored(), s.HostBytes())
	}
	if ref.T != nil {
		t.Fatal("failed restore must not attach a tensor")
	}
	if st := s.Stats(); st.Corrupted != 1 {
		t.Fatalf("corrupted count %d", st.Corrupted)
	}

	// The channel fault was transient; a second restore succeeds.
	if err := restoreStep(s, ref); err != nil {
		t.Fatal(err)
	}
	if ref.T == nil || s.Stored() != 0 {
		t.Fatal("second restore failed")
	}
}

func TestRestoreRetryPolicy(t *testing.T) {
	s := NewStore(quant.OptL())
	inj := faults.New(faults.Config{Seed: 7})
	s.Channel = inj
	s.Recovery = Recovery{Policy: PolicyRetry, MaxRetries: 3}
	ref := denseRef(7)
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	// One forced transient fault: the first re-read succeeds.
	inj.ForceNextRecv(1)
	if err := restoreStep(s, ref); err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	if st := s.Stats(); st.Corrupted != 1 || st.Retried != 1 || st.Restored != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRestoreRetryExhaustsOnPersistentFault(t *testing.T) {
	s := NewStore(quant.OptL())
	inj := faults.New(faults.Config{Seed: 8, OnSend: true})
	s.Channel = inj
	s.Recovery = Recovery{Policy: PolicyRetry, MaxRetries: 2}
	ref := denseRef(8)
	inj.ForceNextSend(1) // corrupt the host copy itself
	if err := s.Offload(ref); err != nil {
		t.Fatal(err)
	}
	err := restoreStep(s, ref)
	if !errors.Is(err, frame.ErrChecksum) {
		t.Fatalf("want checksum error, got %v", err)
	}
	if st := s.Stats(); st.Retried != 2 || st.Corrupted != 3 {
		t.Fatalf("stats %+v", st)
	}
	if s.Stored() != 1 {
		t.Fatal("entry lost after exhausted retries")
	}
}

// TestLostFrameFollowsThePolicy: a frame the networked store lost (it
// holds the only copy, and Lose dropped it) comes back as the typed
// transport.ErrNotFound and takes the path a corrupted frame takes — the
// restore fails typed with the entry retained, under PolicyFail at once
// and under PolicyRecompute once its re-reads are spent (the trainer
// replays the step from there) — and never engages the breaker.
func TestLostFrameFollowsThePolicy(t *testing.T) {
	srv := netstore.New(netstore.Config{})
	addr := "unix:" + filepath.Join(t.TempDir(), "store.sock")
	ln, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	dial, err := transport.DialAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	lose := func(r Recovery) (*Store, *nn.ActRef, error) {
		s := NewStore(quant.OptL())
		s.Transport = transport.NewNetClient(dial, s.Counters())
		s.Recovery = r
		t.Cleanup(func() { s.Close() })
		ref := denseRef(11)
		if err := s.Offload(ref); err != nil {
			t.Fatal(err)
		}
		srv.Lose(func(uint64) bool { return true })
		return s, ref, restoreStep(s, ref)
	}

	s, ref, err := lose(Recovery{Policy: PolicyFail})
	if !errors.Is(err, transport.ErrNotFound) {
		t.Fatalf("PolicyFail: want ErrNotFound, got %v", err)
	}
	if s.Stored() != 1 || ref.T != nil || s.Tripped() {
		t.Fatalf("PolicyFail: %d entries, tensor %v, tripped %v — want the entry retained and the breaker closed",
			s.Stored(), ref.T != nil, s.Tripped())
	}

	s, ref, err = lose(Recovery{Policy: PolicyRecompute, MaxRetries: 2})
	if !errors.Is(err, transport.ErrNotFound) {
		t.Fatalf("PolicyRecompute: want ErrNotFound, got %v", err)
	}
	if s.Stored() != 1 || ref.T != nil || s.Tripped() || s.Stats().Recomputed != 0 {
		t.Fatalf("PolicyRecompute: %d entries, tensor %v, tripped %v, %d recomputed — want the entry retained, the breaker closed and no recompute counted by the store",
			s.Stored(), ref.T != nil, s.Tripped(), s.Stats().Recomputed)
	}
}

// recorder tags every Send and Recv with the buffer identity, in the
// order the transport touched it.
type recorder struct {
	sent  []*byte
	order []*byte
}

func (r *recorder) Send(b []byte) []byte {
	r.sent = append(r.sent, &b[0])
	return b
}
func (r *recorder) Recv(b []byte) []byte {
	r.order = append(r.order, &b[0])
	return b
}

// TestPlanReadsInReverseOffloadOrder: the restore plan reads the entries
// newest first — the order the backward pass needs them — whatever order
// Go's map iteration gives, so peak memory and error attribution are
// identical across runs. A step that restores none of them finishes all
// from the plan in EndStep.
func TestPlanReadsInReverseOffloadOrder(t *testing.T) {
	rec := &recorder{}
	s := NewStore(quant.OptL())
	s.Channel = rec
	const n = 6
	refs := make([]*nn.ActRef, n)
	for i := range refs {
		refs[i] = denseRef(uint64(10 + i))
		if err := s.Offload(refs[i]); err != nil {
			t.Fatal(err)
		}
		seq, ok := s.Seq(refs[i])
		if !ok || seq != i {
			t.Fatalf("ref %d has seq %d (ok=%v)", i, seq, ok)
		}
	}
	// The Send side saw each entry's host buffer in offload order.
	sent := rec.sent
	if len(sent) != n {
		t.Fatalf("%d sends, want %d", len(sent), n)
	}
	if err := restoreStep(s); err != nil {
		t.Fatal(err)
	}
	if len(rec.order) != n || s.Stored() != 0 {
		t.Fatalf("%d transfers, want %d", len(rec.order), n)
	}
	for i := 0; i < n; i++ {
		if rec.order[i] != sent[n-1-i] {
			t.Fatalf("restore %d read offload %d's buffer; want reverse-offload order", i, n-1-i)
		}
	}
}

func TestEndToEndTrainingStepWithRealOffload(t *testing.T) {
	// Forward → offload all saved refs (float tensors freed) → restore
	// in reverse order → backward. The gradient flow must work on the
	// restored (lossy) activations exactly like the functional trainer.
	m := models.ResNet18(models.Scale{Width: 6, Blocks: 1}, 2, tensor.NewRNG(6))
	ds := data.NewClassification(data.ClassificationConfig{Classes: 2, Channels: 3, H: 16, W: 16, Seed: 7})
	x, labels := ds.Batch(4)

	out := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	loss, grad := nn.SoftmaxCrossEntropy(out.T, labels)
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}

	s := NewStore(quant.OptL())
	orig, comp, err := s.OffloadAll(m.Net.SavedRefs())
	if err != nil {
		t.Fatal(err)
	}
	if comp <= 0 || comp >= orig {
		t.Fatalf("offload footprint %d vs %d", comp, orig)
	}
	// Every dense saved ref must have released its tensor.
	for _, ref := range m.Net.SavedRefs() {
		if ref.T != nil && ref.Mask == nil {
			t.Fatalf("ref %q still resident", ref.Name)
		}
	}
	// Restore in reverse order, as the backward pass would; EndStep
	// finishes the BRC entries, whose refs kept their masks.
	refs := m.Net.SavedRefs()
	var order []*nn.ActRef
	seen := map[*nn.ActRef]bool{}
	for i := len(refs) - 1; i >= 0; i-- {
		if !seen[refs[i]] && refs[i].Mask == nil {
			order = append(order, refs[i])
		}
		seen[refs[i]] = true
	}
	if err := restoreStep(s, order...); err != nil {
		t.Fatal(err)
	}
	if s.Stored() != 0 {
		t.Fatalf("%d entries left", s.Stored())
	}
	dx := m.Net.Backward(grad)
	if nn.NaNGuard(dx) {
		t.Fatal("backward on restored activations produced NaN")
	}
	gotGrad := false
	for _, p := range m.Net.Params() {
		if p.Grad.MaxAbs() > 0 {
			gotGrad = true
		}
	}
	if !gotGrad {
		t.Fatal("no gradients after offloaded step")
	}
}
