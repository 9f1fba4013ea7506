package main

// The six workloads. End-to-end rounds drive the product entry points
// through the root jpegact facade, so a refactor of the three training
// loops is measured and not bypassed. Every loop is closed: a trainer (or
// store client) waits for its store before issuing more work.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"jpegact"
	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// roundResult is what one timed, fixed-work round reports besides its
// wall time.
type roundResult struct {
	Work      float64 // images trained, or store operations completed
	Attempted int     // operations: training steps, tensor round trips, store ops
	Failed    int     // operations that errored or failed an output check
	// Sig must repeat exactly from round to round: the epoch loss bits of
	// a training round, the SHA-256 of a codec pass's encoded bytes.
	Sig string
	// Metrics are the round's own measurements of workload-specific
	// wall-clock metrics; the reported value is the median over rounds.
	Metrics map[string]float64
	Notes   []string // what failed, for the log
}

// runner is one set-up workload.
type runner interface {
	round() roundResult
	// dataPath reports, after the rounds, what the workload's data path
	// did to the bytes it was handed: uncompressed ÷ stored bytes, and the
	// relative L2 error of what came back. Both are exact at a given seed;
	// a path that compresses nothing reports 1 and 0.
	dataPath() (ratio, relL2 float64, err error)
	// finish runs the end-of-workload output checks, releases everything
	// the setup acquired, and returns a description of each failed check.
	finish() []string
}

type workload struct {
	Name string
	Why  string
	// WorkMetric names the throughput metric Work feeds ("" = none).
	WorkMetric string
	// NeedsTwoProcs marks workloads whose wall-clock numbers only mean
	// something with a second P: they are printed but flagged
	// "valid": false when GOMAXPROCS < 2.
	NeedsTwoProcs bool
	setup         func(config) (runner, error)
	traced        func(*traceCtx) (*layerValues, error)
}

var workloads = []workload{
	{
		Name:  wlCodecStream,
		Why:   "codec, frame and coding do all the work, nn, engine and wire none; encode and decode are timed apart so a gain on one side that costs the other shows",
		setup: setupCodecStream, traced: tracedCodecStream,
	},
	{
		Name:       wlTrainPlain,
		Why:        "single-worker no-offload baseline and control: nn does everything, so a codec, engine or transport change must not move it",
		WorkMetric: "samples_per_s",
		setup:      setupTrainPlain, traced: tracedStepLoop(wlTrainPlain),
	},
	{
		Name:       wlOffloadDMA,
		Why:        "the paper scenario: async offload over a simulated PCIe-bound channel, where engine overlap and codec speed decide how much transfer stays exposed",
		WorkMetric: "samples_per_s",
		setup:      setupOffloadDMA, traced: tracedStepLoop(wlOffloadDMA),
	},
	{
		Name:       wlOffloadNet,
		Why:        "the same trainer with StoreAddr on an in-process store server, default options (window 1): transport and netstore under the engine, no simulated sleep",
		WorkMetric: "samples_per_s",
		setup:      setupOffloadNet, traced: tracedStepLoop(wlOffloadNet),
	},
	{
		Name:       wlDP2Net,
		Why:        "gradient exchange through the same transport with another traffic shape (2 writers, one ordered reader, 16 KiB buckets); the only workload that runs the data-parallel trainer",
		WorkMetric: "samples_per_s", NeedsTwoProcs: true,
		setup: setupDP2Net, traced: tracedDP2Net,
	},
	{
		Name:       wlStoreMixed,
		Why:        "two window-8 clients play the offload life cycle (put all, get reversed and compare, delete) with real frames: transport and netstore do all the work, nn and codec none",
		WorkMetric: "ops_per_s", NeedsTwoProcs: true,
		setup: setupStoreMixed, traced: tracedStoreMixed,
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func lossSig(loss float64) string {
	return strconv.FormatUint(math.Float64bits(loss), 16)
}

// cleanStats reports the counters that must stay zero on a clean channel.
func cleanStats(s jpegact.OffloadStats) string {
	if s.Recomputed+s.Degraded+s.Corrupted+s.Dropped == 0 {
		return ""
	}
	return fmt.Sprintf("unclean channel counters: recomputed=%d degraded=%d corrupted=%d dropped=%d",
		s.Recomputed, s.Degraded, s.Corrupted, s.Dropped)
}

// --- train_* ------------------------------------------------------------

// trainRunner times one facade call per round. call returns the epoch
// loss, the compression ratio (0 = none) and a description of anything
// wrong with the round.
type trainRunner struct {
	images, steps int
	refLoss       float64 // what every round's loss must equal, bit for bit
	call          func() (loss, ratio float64, bad string)
	closeFn       func() []string
	// lossy is set on the workloads that offload compressed activations.
	lossy *config
	ratio float64 // the last round's, as the facade reported it
}

func (t *trainRunner) round() roundResult {
	loss, ratio, bad := t.call()
	res := roundResult{Work: float64(t.images), Attempted: t.steps, Sig: lossSig(loss)}
	if bad == "" && loss != t.refLoss {
		bad = fmt.Sprintf("epoch loss %v differs from the reference round's %v", loss, t.refLoss)
	}
	if bad != "" {
		res.Failed = t.steps
		res.Notes = append(res.Notes, bad)
	}
	t.ratio = ratio
	return res
}

// dataPath: the facade reports the ratio but hands back no tensors, so
// the error is measured on this seed's captured activations (the tensors
// the trainer offloads at step WarmSteps+1) through the trainer's codec.
func (t *trainRunner) dataPath() (float64, float64, error) {
	if t.lossy == nil {
		return 1, 0, nil
	}
	pass := runStreamPass(codec.New(quant.OptL()), captureActivations(*t.lossy), nil)
	if pass.Failed > 0 {
		return 0, 0, fmt.Errorf("codec pass over the captured activations: %v", pass.Notes)
	}
	return t.ratio, pass.RelL2, nil
}

func (t *trainRunner) finish() []string {
	if t.closeFn == nil {
		return nil
	}
	return t.closeFn()
}

// epochLoss pulls the single epoch's loss out of a facade report.
func epochLoss(rep jpegact.TrainReport, err error) (float64, float64, string) {
	switch {
	case err != nil:
		return 0, 0, err.Error()
	case rep.Diverged:
		return 0, 0, "training diverged"
	case len(rep.Epochs) != 1:
		return 0, 0, fmt.Sprintf("%d epochs reported, want 1", len(rep.Epochs))
	}
	return rep.Epochs[0].Loss, rep.FinalRatio, ""
}

func plainRound(c config) (float64, float64, string) {
	loss, _, bad := epochLoss(jpegact.TrainClassifier(modelName, c.scale(), c.trainCfg(c.Sz.Batches), c.Seed), nil)
	return loss, 0, bad
}

func offloadRound(c config, oc jpegact.OffloadTrainOptions) (float64, float64, string) {
	oc.DQT = jpegact.OptL()
	rep, stats, err := jpegact.TrainClassifierOffloaded(modelName, c.scale(), c.trainCfg(c.Sz.Batches), oc, c.Seed)
	loss, ratio, bad := epochLoss(rep, err)
	if bad == "" {
		bad = cleanStats(stats)
	}
	return loss, ratio, bad
}

func setupTrainPlain(c config) (runner, error) {
	loss, _, bad := plainRound(c) // warm-up round; its loss is the reference
	if bad != "" {
		return nil, fmt.Errorf("warm-up round: %s", bad)
	}
	return &trainRunner{
		images: c.Sz.Batches * c.Sz.Batch, steps: c.Sz.Batches, refLoss: loss,
		call: func() (float64, float64, string) { return plainRound(c) },
	}, nil
}

// syncReference runs the Async:false round over a clean in-process
// channel whose epoch loss every offloaded round must reproduce exactly.
func syncReference(c config) (float64, error) {
	loss, _, bad := offloadRound(c, jpegact.OffloadTrainOptions{})
	if bad != "" {
		return 0, fmt.Errorf("sync reference round: %s", bad)
	}
	return loss, nil
}

func setupOffloadDMA(c config) (runner, error) {
	oc := jpegact.OffloadTrainOptions{Async: true, Channel: newSimChannel(c.Sz, nil)}
	if _, _, bad := offloadRound(c, oc); bad != "" {
		return nil, fmt.Errorf("warm-up round: %s", bad)
	}
	ref, err := syncReference(c)
	if err != nil {
		return nil, err
	}
	return &trainRunner{
		images: c.Sz.Batches * c.Sz.Batch, steps: c.Sz.Batches, refLoss: ref, lossy: &c,
		call: func() (float64, float64, string) { return offloadRound(c, oc) },
	}, nil
}

// storeChecks are the end-of-workload checks every server-backed
// workload shares: nothing left resident, server stopped cleanly.
func storeChecks(srv *storeServer) []string {
	var bad []string
	if n := srv.Srv.Entries(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d entries left on the store server", n))
	}
	if err := srv.stop(); err != nil {
		bad = append(bad, "store server: "+err.Error())
	}
	return bad
}

func setupOffloadNet(c config) (runner, error) {
	srv, err := startStore(c.Dir)
	if err != nil {
		return nil, err
	}
	// Default options: exactly what `acttrain -store-addr` gives a user —
	// a stop-and-wait (window 1) client until the trainer exposes the window.
	oc := jpegact.OffloadTrainOptions{Async: true, StoreAddr: srv.Addr}
	if _, _, bad := offloadRound(c, oc); bad != "" {
		srv.stop()
		return nil, fmt.Errorf("warm-up round: %s", bad)
	}
	ref, err := syncReference(c)
	if err != nil {
		srv.stop()
		return nil, err
	}
	return &trainRunner{
		images: c.Sz.Batches * c.Sz.Batch, steps: c.Sz.Batches, refLoss: ref, lossy: &c,
		call:    func() (float64, float64, string) { return offloadRound(c, oc) },
		closeFn: func() []string { return storeChecks(srv) },
	}, nil
}

// dpRound is one data-parallel facade call of c.Sz.DPSteps steps.
func dpRound(c config, dp jpegact.DataParallelOptions) (float64, jpegact.TransportSnapshot, string) {
	dp.Microbatches = c.Sz.Microbatches
	dp.BucketBytes = c.Sz.BucketBytes
	rep, snap, err := jpegact.TrainClassifierDataParallel(modelName, c.scale(), c.trainCfg(c.Sz.DPSteps), dp, c.Seed)
	loss, _, bad := epochLoss(rep, err)
	if bad == "" && snap.GradPuts == 0 {
		bad = "no gradient frames were put"
	}
	if bad == "" {
		bad = cleanStats(snap)
	}
	return loss, snap, bad
}

func setupDP2Net(c config) (runner, error) {
	srv, err := startStore(c.Dir)
	if err != nil {
		return nil, err
	}
	dial, err := jpegact.DialActivationStore(srv.Addr)
	if err != nil {
		srv.stop()
		return nil, err
	}
	dp := jpegact.DataParallelOptions{Replicas: 2, StoreDial: dial}
	if _, _, bad := dpRound(c, dp); bad != "" {
		srv.stop()
		return nil, fmt.Errorf("warm-up round: %s", bad)
	}
	// The trajectory depends on M, never on K or the transport: one
	// replica over the in-process transport is the reference.
	ref, _, bad := dpRound(c, jpegact.DataParallelOptions{Replicas: 1})
	if bad != "" {
		srv.stop()
		return nil, fmt.Errorf("K=1 reference round: %s", bad)
	}
	return &trainRunner{
		images: c.Sz.DPSteps * c.Sz.Microbatches * c.Sz.Batch, steps: c.Sz.DPSteps, refLoss: ref,
		call: func() (float64, float64, string) {
			loss, _, bad := dpRound(c, dp)
			return loss, 0, bad
		},
		closeFn: func() []string { return storeChecks(srv) },
	}, nil
}

// --- captured activations (codec_stream, store_mixed, layer probes) ------

// captured is one real saved activation of the common model.
type captured struct {
	Name string
	Kind compress.Kind
	T    *tensor.Tensor
}

// captureActivations trains the common model for WarmSteps steps and
// returns the unique saved activations of the next forward pass — real
// shapes, real sparsity, the kinds the model really saves.
func captureActivations(c config) []captured {
	m, ds := c.buildModel()
	opt := nn.NewSGD(learnRate, momentum, weightDecay)
	for s := 0; s < c.Sz.WarmSteps; s++ {
		x, labels := ds.Batch(c.Sz.Batch)
		out := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
		_, grad := nn.SoftmaxCrossEntropy(out.T, labels)
		m.Net.Backward(grad)
		opt.Step(m.Net.Params())
	}
	x, _ := ds.Batch(c.Sz.Batch)
	m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	var out []captured
	seen := map[*nn.ActRef]bool{}
	for _, ref := range m.Net.SavedRefs() {
		if seen[ref] || ref.T == nil {
			continue
		}
		seen[ref] = true
		name := ref.Name
		if name == "" {
			name = "input"
		}
		out = append(out, captured{Name: name, Kind: ref.Kind, T: ref.T})
	}
	return out
}

func totalBytes(ts []captured) int {
	n := 0
	for _, t := range ts {
		n += t.T.Bytes()
	}
	return n
}

// streamPass runs every tensor through Encode → EncodeFrame → DecodeFrame
// → Decode on the calling goroutine.
type streamPass struct {
	EncodeNS, DecodeNS int64
	FramedBytes        int
	SHA                string  // of every encoded frame, in order
	RelL2              float64 // sqrt(Σ(x-x̂)²/Σx²) over tensors that decode to values
	Failed             int
	Notes              []string
}

// runStreamPass is one pass; with a recorder each of the four layer calls
// of a tensor's round trip, and the bench's own verification, is a span.
func runStreamPass(p codec.Pipeline, ts []captured, rec *recorder) streamPass {
	var sp streamPass
	h := sha256.New()
	var num, den float64
	for _, t := range ts {
		fail := func(err error) {
			sp.Failed++
			sp.Notes = append(sp.Notes, fmt.Sprintf("%s: %v", t.Name, err))
		}
		k := kindSlug(t.Kind)
		t0 := time.Now()
		id := rec.begin("codec.encode." + k)
		enc, err := p.Encode(t.Kind, t.T)
		rec.end(id)
		if err != nil {
			fail(err)
			continue
		}
		id = rec.begin("frame.encode")
		b := frame.EncodeFrame(enc.Frame)
		rec.end(id)
		t1 := time.Now()
		id = rec.begin("frame.decode")
		f, err := frame.DecodeFrame(b)
		rec.end(id)
		if err != nil {
			fail(err)
			continue
		}
		id = rec.begin("codec.decode." + k)
		out, err := p.Decode(f)
		rec.end(id)
		t2 := time.Now()
		sp.EncodeNS += int64(t1.Sub(t0))
		sp.DecodeNS += int64(t2.Sub(t1))
		if err != nil {
			fail(err)
			continue
		}
		sp.FramedBytes += len(b)
		id = rec.begin("bench.verify")
		h.Write(b)
		switch {
		case out == nil: // BRC: the mask never leaves the device
		case out.Shape != t.T.Shape:
			fail(fmt.Errorf("decoded shape %v, want %v", out.Shape, t.T.Shape))
		default:
			for i, v := range t.T.Data {
				d := float64(v - out.Data[i])
				num += d * d
				den += float64(v) * float64(v)
			}
		}
		rec.end(id)
	}
	sp.SHA = hex.EncodeToString(h.Sum(nil))
	if den > 0 {
		sp.RelL2 = math.Sqrt(num / den)
	}
	return sp
}

func kindSlug(k compress.Kind) string {
	switch k {
	case compress.KindConv:
		return "conv"
	case compress.KindReLUToConv:
		return "relu_conv"
	case compress.KindReLUToOther:
		return "relu_other"
	case compress.KindPoolDropout:
		return "pool_dropout"
	}
	return "other"
}

// --- codec_stream ---------------------------------------------------------

type codecRunner struct {
	pipe   codec.Pipeline
	ts     []captured
	passes int
	refSHA string
	last   streamPass
}

func setupCodecStream(c config) (runner, error) {
	r := &codecRunner{pipe: codec.New(quant.OptL()), ts: captureActivations(c), passes: c.Sz.CodecPasses}
	warm := runStreamPass(r.pipe, r.ts, nil)
	if warm.Failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %v", warm.Notes)
	}
	r.refSHA = warm.SHA
	return r, nil
}

func (r *codecRunner) round() roundResult {
	res := roundResult{Attempted: r.passes * len(r.ts), Sig: r.refSHA}
	var encNS, decNS int64
	for p := 0; p < r.passes; p++ {
		r.last = runStreamPass(r.pipe, r.ts, nil)
		encNS += r.last.EncodeNS
		decNS += r.last.DecodeNS
		res.Failed += r.last.Failed
		res.Notes = append(res.Notes, r.last.Notes...)
		if r.last.SHA != r.refSHA {
			// Every pass must produce the warm-up pass's bytes.
			res.Sig = r.last.SHA
			res.Failed = res.Attempted
			res.Notes = append(res.Notes, "encoded bytes differ from the warm-up pass")
		}
	}
	mb := float64(r.passes*totalBytes(r.ts)) / 1e6
	res.Metrics = map[string]float64{
		"encode_mb_per_s": mb / (float64(encNS) / 1e9),
		"decode_mb_per_s": mb / (float64(decNS) / 1e9),
	}
	return res
}

func (r *codecRunner) dataPath() (float64, float64, error) {
	return float64(totalBytes(r.ts)) / float64(r.last.FramedBytes), r.last.RelL2, nil
}

func (r *codecRunner) finish() []string { return nil }

// --- store_mixed ----------------------------------------------------------

const (
	storeClients = 2 // the load-generating goroutines/connections, sized for nproc = 2
	storeWindow  = 8
)

type storeRunner struct {
	srv        *storeServer
	clients    []*transport.NetClient
	counters   *transport.Counters
	decoded    []*frame.Frame // the captured activations as frames …
	frames     [][]byte       // … and as the bytes that cross the wire
	iters      int
	goroutines int // before the workload started anything
}

func setupStoreMixed(c config) (runner, error) {
	r := &storeRunner{iters: c.Sz.StoreIters, goroutines: runtime.NumGoroutine(), counters: &transport.Counters{}}
	var err error
	if r.decoded, err = activationFrames(captureActivations(c)); err != nil {
		return nil, err
	}
	for _, f := range r.decoded {
		r.frames = append(r.frames, frame.EncodeFrame(f))
	}
	if r.srv, err = startStore(c.Dir); err != nil {
		return nil, err
	}
	dial, err := jpegact.DialActivationStore(r.srv.Addr)
	if err != nil {
		r.srv.stop()
		return nil, err
	}
	for i := 0; i < storeClients; i++ {
		cl := jpegact.NewStoreClient(dial, r.counters)
		cl.Window = storeWindow
		r.clients = append(r.clients, cl)
	}
	if warm := r.play(1, nil); warm.Failed > 0 {
		r.finish()
		return nil, fmt.Errorf("warm-up iteration: %v", warm.Notes)
	}
	return r, nil
}

// pendingOp is one submitted async op on its way to the client's waiter.
type pendingOp struct {
	h      *transport.Pending
	submit time.Time
	want   *frame.Frame // non-nil for a GET: the frame that was put
}

// sameFrame reports whether a fetched frame is the one that was put. The
// client has verified the CRC of the bytes off the wire, so equal fields
// are equal bytes; serializing the frame again to compare bytes costs a
// fifth of the round (measured), and it is the bench's time, not the
// store's.
func sameFrame(a, b *frame.Frame) bool {
	return a.Codec == b.Codec && a.Kind == b.Kind && a.Shape == b.Shape &&
		slices.Equal(a.Scales, b.Scales) && bytes.Equal(a.Payload, b.Payload)
}

var storeRetry = transport.Retry{Attempts: 2}

// lifeCycle plays iters offload life cycles on one client: PutAsync every
// frame, GetAsync them in reverse and compare, Delete them all. The wire
// is FIFO per connection, so no barrier is needed between the phases; the
// window is the only flow control. Submit→done times come from a waiter
// goroutine that settles handles in submission order.
func lifeCycle(cl *transport.NetClient, base uint64, decoded []*frame.Frame, frames [][]byte, iters int, rec *recorder, track int) (us []float64, failed int, notes []string) {
	// Sized to one iteration's async submissions, so the submitter is
	// held back by the wire window and never by the waiter.
	ops := make(chan pendingOp, 2*len(frames))
	var wg sync.WaitGroup
	var waitUS []float64
	var waitFailed int
	var waitNotes []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for op := range ops {
			var err error
			if op.want == nil {
				_, err = op.h.PutResult()
			} else {
				var f *frame.Frame
				if f, err = op.h.GetResult(); err == nil && !sameFrame(f, op.want) {
					err = fmt.Errorf("GET returned other bytes than were PUT")
				}
			}
			waitUS = append(waitUS, float64(time.Since(op.submit).Nanoseconds())/1e3)
			if err != nil {
				waitFailed++
				waitNotes = append(waitNotes, err.Error())
			}
		}
	}()
	n := len(frames)
	for it := 0; it < iters; it++ {
		id := rec.async("store.put_all", track)
		for i, b := range frames {
			t0 := time.Now()
			ops <- pendingOp{h: cl.PutAsync(base|uint64(i), b, storeRetry), submit: t0}
		}
		rec.endAsync(id)
		id = rec.async("store.get_all", track)
		for i := n - 1; i >= 0; i-- {
			t0 := time.Now()
			ops <- pendingOp{h: cl.GetAsync(base|uint64(i), storeRetry, false), submit: t0, want: decoded[i]}
		}
		rec.endAsync(id)
		id = rec.async("store.delete_all", track)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := cl.Delete(base | uint64(i))
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				failed++
				notes = append(notes, err.Error())
			}
		}
		rec.endAsync(id)
	}
	close(ops)
	wg.Wait()
	return append(us, waitUS...), failed + waitFailed, append(notes, waitNotes...)
}

// play runs every client's life cycles concurrently.
func (r *storeRunner) play(iters int, rec *recorder) roundResult {
	type out struct {
		us     []float64
		failed int
		notes  []string
	}
	outs := make([]out, len(r.clients))
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		wg.Add(1)
		go func(i int, cl *transport.NetClient) {
			defer wg.Done()
			us, failed, notes := lifeCycle(cl, uint64(i+1)<<32, r.decoded, r.frames, iters, rec, trackClient+i)
			outs[i] = out{us, failed, notes}
		}(i, cl)
	}
	wg.Wait()
	res := roundResult{Attempted: len(r.clients) * iters * 3 * len(r.frames)}
	var us []float64
	for _, o := range outs {
		us = append(us, o.us...)
		res.Failed += o.failed
		res.Notes = append(res.Notes, o.notes...)
	}
	res.Work = float64(res.Attempted)
	res.Metrics = map[string]float64{"op_us_p50": median(us)}
	return res
}

func (r *storeRunner) round() roundResult { return r.play(r.iters, nil) }

// dataPath: the store holds the bytes it is given and every GET is
// compared with its PUT.
func (r *storeRunner) dataPath() (float64, float64, error) { return 1, 0, nil }

func (r *storeRunner) finish() []string {
	var bad []string
	if s := r.counters.Snapshot(); s.Corrupted+s.Retried+s.Reconnects > 0 {
		bad = append(bad, fmt.Sprintf("clean wire saw corrupted=%d retried=%d reconnects=%d", s.Corrupted, s.Retried, s.Reconnects))
	}
	for _, cl := range r.clients {
		cl.Close()
	}
	bad = append(bad, storeChecks(r.srv)...)
	if n := settleGoroutines(r.goroutines); n > r.goroutines {
		bad = append(bad, fmt.Sprintf("%d goroutines after the workload, %d before", n, r.goroutines))
	}
	return bad
}
