package train

// Deterministic data-parallel training: K replica workers each run
// forward/backward on a disjoint share of a step's microbatches and
// exchange compressed gradients through the activation-store transport
// (in-process Local or the networked store), with a fixed-order exact
// all-reduce that makes the final weights bit-identical for any K.
//
// Since PR 10 the exchange is *backward-overlapped and bucketed*,
// DDP-style: each worker partitions its flat gradient into fixed-size
// buckets (nn.BucketPlan — bucket == wire chunk) and ships each bucket
// with an asynchronous pipelined PUT the moment backward has finalized
// every parameter inside it, which — backward running in reverse
// network order — means tail-of-network buckets are on the wire while
// the head of the network is still differentiating. The reducer runs
// concurrently with the workers from the start of the step: it issues
// pipelined GETs in one fixed global order (chunk descending to follow
// the production order, microbatch ascending within a chunk), gated on
// an in-process readiness board that publishes each PUT's server
// acknowledgment, and drains completions through a FIFO reorder buffer
// in exactly the issue order. Overlap therefore changes wall time only:
// every gradient element is still accumulated microbatch 0..M-1 for
// any K and any bucket size — and DPOptions.SerialExchange, which only
// withholds the hook and starts the reducer late, lands on the same
// weights.
//
// The rest of the determinism contract, piece by piece:
//
//   - A step is always the same M microbatches, drawn centrally by the
//     driver from the sequential data stream. K only controls which
//     worker runs which microbatch (round-robin, m % K), never what
//     the microbatches are.
//   - Every microbatch forward starts from the step-start side-effect
//     snapshot, with the dropout RNG positions salted by the
//     microbatch index (nn.SaltNetState) — so microbatch m draws the
//     same dropout masks no matter which worker runs it, and BN
//     statistics are anchored to the step start for all of them.
//   - Per-microbatch gradients cross the transport as framed chunks
//     under the gradient key namespace (transport.GradKey), one chunk
//     per bucket, so the wire format is the PR-9 one unchanged.
//   - The reduced gradient is published once (slot 0) and every
//     replica imports the same bytes, scales by 1/M exactly once, and
//     steps its own optimizer. Identical weights + identical gradients
//     + identical optimizer state stay identical forever.
//   - The step's canonical post-forward state is microbatch 0's (the
//     "lead" microbatch, always worker 0's first), adopted by every
//     replica before the import — so BN running stats and RNG
//     positions also evolve identically for any K.
//
// The gradient codec is lossless (frame.CodecGradRaw), so the
// bit-exactness holds by construction.

import (
	"fmt"
	"sync"
	"time"

	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// DPOptions configures the data-parallel trainer.
// ClassifierDataParallel ignores Config.Method and Config.MeasureError:
// its activation policy is none — saved activations reach backward
// untouched, without even Baseline's byte accounting, so the compression
// ratio it reports is 0.
type DPOptions struct {
	// Replicas is K, the worker count (default 1). Each worker is a
	// goroutine holding its own full model replica and optimizer.
	Replicas int
	// Microbatches is M, the fixed number of microbatches per step
	// (default 4). Each draws cfg.BatchSize examples. The trajectory
	// depends on M but never on Replicas; Replicas must not exceed M.
	Microbatches int
	// BucketBytes sets the gradient bucket size in raw float32 bytes
	// (default 256 KiB). A bucket is one wire chunk: smaller buckets
	// leave backward earlier (finer overlap) but cost more frames.
	// The value never affects the result, only the schedule.
	BucketBytes int
	// SerialExchange takes the overlap out of the bucketed exchange:
	// every bucket ships stop-and-wait after backward completes and
	// the reducer starts only once every worker has finished — the
	// baseline the bench drivers measure overlap against. It is the
	// same code minus the OnGrad hook, and the float32 accumulation
	// order is identical, so the trained weights match exactly.
	SerialExchange bool
	// StoreDial, when set, exchanges gradients through a networked
	// activation store instead of the in-process transport. Every
	// worker and the reducer gets its own connection.
	StoreDial transport.Dialer
	// StoreTimeout bounds one exchange operation's whole retry
	// schedule (0 = unbounded).
	StoreTimeout time.Duration
	// ClientHook observes every wire client built (chaos harnesses
	// install op-count kill triggers here).
	ClientHook func(*transport.NetClient)
	// Verbose prints per-epoch exchange counters.
	Verbose bool
}

func (dp DPOptions) withDefaults() DPOptions {
	if dp.Replicas <= 0 {
		dp.Replicas = 1
	}
	if dp.Microbatches <= 0 {
		dp.Microbatches = 4
	}
	if dp.BucketBytes <= 0 {
		dp.BucketBytes = 4 * gradChunkElems
	}
	return dp
}

// gradChunkElems is the default bucket/chunk capacity: 2^16 float32
// values (256 KiB raw) — far under the frame caps and, with 12 chunk
// bits, enough for 268M-parameter networks.
const gradChunkElems = 1 << 16

// gradExchange moves one goroutine's gradient vectors through a
// transport as framed chunks. Not safe for concurrent use — each
// worker and the reducer owns one. Encode and decode go through pooled
// per-chunk scratch buffers: the exchange runs once per chunk per
// microbatch per step, so fresh allocations here were measurable churn.
type gradExchange struct {
	tr       transport.Transport
	pipe     codec.Pipeline
	tag      uint64
	retry    transport.Retry
	chunk    int // bucket capacity in elements
	counters *transport.Counters

	encBuf []float32 // pooled encode staging (chunk elems)
	decBuf []float32 // pooled decode staging (chunk elems)
}

func (g *gradExchange) chunkCount(n int) int { return (n + g.chunk - 1) / g.chunk }

// chunkSpan returns chunk c's half-open element range in an n-element
// vector.
func (g *gradExchange) chunkSpan(c, n int) (lo, hi int) {
	lo = c * g.chunk
	hi = lo + g.chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// encodeChunk frames flat's chunk c through the pooled staging tensor.
// The returned bytes are freshly allocated (the wire retains them for
// resends); the staging buffer is reusable as soon as this returns.
func (g *gradExchange) encodeChunk(flat []float32, c int) ([]byte, error) {
	lo, hi := g.chunkSpan(c, len(flat))
	n := hi - lo
	if cap(g.encBuf) < n {
		g.encBuf = make([]float32, n)
	}
	x := &tensor.Tensor{Shape: tensor.Shape{N: 1, C: 1, H: 1, W: n}, Data: g.encBuf[:n]}
	copy(x.Data, flat[lo:hi])
	enc, err := g.pipe.EncodeGradient(frame.CodecGradRaw, x)
	if err != nil {
		return nil, err
	}
	return frame.EncodeFrame(enc.Frame), nil
}

// putTicket tracks one async chunk PUT until its acknowledgment.
type putTicket struct {
	c    int
	size int
	h    *transport.Pending
}

// awaitPut settles one PUT ticket, counting the landed chunk.
func (g *gradExchange) awaitPut(step, slot uint64, t putTicket) error {
	if _, err := t.h.PutResult(); err != nil {
		return fmt.Errorf("grad put step=%d slot=%d chunk=%d: %w", step, slot, t.c, err)
	}
	g.counters.GradPuts.Add(1)
	g.counters.BytesGrad.Add(int64(t.size))
	return nil
}

// put ships flat as chunked frames under (step, slot), keeping as many
// chunk PUTs in flight as the transport's window allows.
func (g *gradExchange) put(step, slot uint64, flat []float32) error {
	fifo := transport.NewFIFO(g.tr, func(t putTicket) error { return g.awaitPut(step, slot, t) })
	for c := 0; c*g.chunk < len(flat); c++ {
		b, err := g.encodeChunk(flat, c)
		if err != nil {
			fifo.Drain() // so no handle outlives the call; err is the verdict
			return err
		}
		if err := fifo.Reserve(); err != nil {
			return err
		}
		h := g.tr.PutAsync(transport.GradKey(g.tag, step, slot, uint64(c)), b, g.retry)
		fifo.Push(putTicket{c, len(b), h})
	}
	return fifo.Drain()
}

// decodeChunkInto settles one GET handle and decodes the chunk into
// dst, reporting the encoded byte count.
func (g *gradExchange) decodeChunkInto(step, slot uint64, c int, h *transport.Pending, dst []float32) error {
	f, err := h.GetResult()
	if err != nil {
		return fmt.Errorf("grad get step=%d slot=%d chunk=%d: %w", step, slot, c, err)
	}
	if f.Shape.Elems() != len(dst) {
		return fmt.Errorf("grad get step=%d slot=%d chunk=%d: %d values, want %d", step, slot, c, f.Shape.Elems(), len(dst))
	}
	if err := g.pipe.DecodeGradientInto(f, dst); err != nil {
		return fmt.Errorf("grad decode step=%d slot=%d chunk=%d: %w", step, slot, c, err)
	}
	g.counters.GradGets.Add(1)
	g.counters.BytesGrad.Add(int64(f.EncodedSize()))
	return nil
}

// getTicket tracks one async chunk GET until its frame arrives.
type getTicket struct {
	m, c int
	h    *transport.Pending
}

// get fetches the vector stored under (step, slot) back into dst,
// keeping the transport's window of chunk GETs in flight and decoding
// straight into dst's chunk spans.
func (g *gradExchange) get(step, slot uint64, dst []float32) error {
	fifo := transport.NewFIFO(g.tr, func(t getTicket) error {
		lo, hi := g.chunkSpan(t.c, len(dst))
		return g.decodeChunkInto(step, slot, t.c, t.h, dst[lo:hi])
	})
	for c := 0; c*g.chunk < len(dst); c++ {
		if err := fifo.Reserve(); err != nil {
			return err
		}
		h := g.tr.GetAsync(transport.GradKey(g.tag, step, slot, uint64(c)), g.retry, false)
		fifo.Push(getTicket{0, c, h})
	}
	return fifo.Drain()
}

// del releases (step, slot)'s chunks, best-effort.
func (g *gradExchange) del(step, slot uint64, n int) {
	for c := 0; c < g.chunkCount(n); c++ {
		g.tr.Delete(transport.GradKey(g.tag, step, slot, uint64(c)))
	}
}

// gradBoard publishes worker PUT acknowledgments to the streaming
// reducer: a GET for (microbatch, chunk) issued before the server
// acknowledged the worker's PUT would race a terminal NotFound, so the
// reducer gates each issue on the board. fail wakes every waiter with
// the first error so neither side can deadlock on a dead peer.
type gradBoard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ready map[[2]int]bool
	err   error
}

func newGradBoard() *gradBoard {
	b := &gradBoard{ready: map[[2]int]bool{}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *gradBoard) reset() {
	b.mu.Lock()
	for k := range b.ready {
		delete(b.ready, k)
	}
	b.err = nil
	b.mu.Unlock()
}

func (b *gradBoard) publish(m, c int) {
	b.mu.Lock()
	b.ready[[2]int{m, c}] = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *gradBoard) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *gradBoard) wait(m, c int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.ready[[2]int{m, c}] && b.err == nil {
		b.cond.Wait()
	}
	return b.err
}

// reduceStreaming zeroes reduced and accumulates all M microbatch
// vectors of step into it, running concurrently with the workers that
// produce them. GETs are issued in one fixed global order — chunk
// descending (tail buckets are published first, since backward runs in
// reverse network order), microbatch ascending within a chunk — each
// gated on the board, and completions drain through the FIFO reorder
// buffer in exactly the issue order. Per gradient element the float32
// adds therefore happen microbatch 0..M-1 regardless of K, bucket size,
// wire timing or when the reducer was started.
func (g *gradExchange) reduceStreaming(board *gradBoard, step uint64, M int, reduced []float32) error {
	for i := range reduced {
		reduced[i] = 0
	}
	if cap(g.decBuf) < g.chunk {
		g.decBuf = make([]float32, g.chunk)
	}
	fifo := transport.NewFIFO(g.tr, func(t getTicket) error {
		lo, hi := g.chunkSpan(t.c, len(reduced))
		buf := g.decBuf[:hi-lo]
		if err := g.decodeChunkInto(step, uint64(t.m+1), t.c, t.h, buf); err != nil {
			return err
		}
		acc := reduced[lo:hi]
		for i, v := range buf {
			acc[i] += v
		}
		return nil
	})
	for c := g.chunkCount(len(reduced)) - 1; c >= 0; c-- {
		for m := 0; m < M; m++ {
			if err := board.wait(m, c); err != nil {
				fifo.Drain() // so no handle outlives the call; err is the verdict
				return err
			}
			if err := fifo.Reserve(); err != nil {
				return err
			}
			h := g.tr.GetAsync(transport.GradKey(g.tag, step, uint64(m+1), uint64(c)), g.retry, false)
			fifo.Push(getTicket{m, c, h})
		}
	}
	return fifo.Drain()
}

// dpReplica is one worker's private world: model, optimizer, step body,
// exchange, bucket plan.
type dpReplica struct {
	model *models.Model
	opt   *nn.SGD
	pass  *pass
	gx    *gradExchange
	plan  *nn.BucketPlan
	flat  []float32 // scratch: this replica's flattened gradient
}

// microbatch differentiates microbatch m through the replica's pass and
// ships its gradient as one async PUT per bucket; a waiter goroutine
// settles the acknowledgments in issue order and publishes them to the
// board. With overlap, the pass's OnGrad hook copies each finalized
// parameter into the flat vector and ships every bucket that just
// completed, while backward is still running. The post-backward sweep
// ships whatever the hook did not see (topologies outside the container
// walk) — which, without overlap, is everything: the serial exchange is
// this code with the hook left out. Every bucket ships exactly once.
func (r *dpReplica) microbatch(step uint64, m int, x *tensor.Tensor, labels []int, overlap bool, board *gradBoard, putWG *sync.WaitGroup) (stepResult, error) {
	slot := uint64(m + 1)
	tickets := make(chan putTicket, r.plan.Buckets()) // one send per bucket: never blocks
	gx := r.gx
	putWG.Add(1)
	go func() {
		defer putWG.Done()
		for t := range tickets {
			if err := gx.awaitPut(step, slot, t); err != nil {
				board.fail(err)
				for rest := range tickets {
					rest.h.Err()
				}
				return
			}
			board.publish(m, t.c)
		}
	}()
	var shipErr error
	ship := func(p *nn.Param) {
		off, ok := r.plan.Offset(p)
		if !ok {
			return
		}
		copy(r.flat[off:off+p.Grad.Elems()], p.Grad.Data)
		for _, c := range r.plan.Produce(p) {
			if shipErr != nil {
				return
			}
			b, err := gx.encodeChunk(r.flat, c)
			if err != nil {
				shipErr = err
				return
			}
			h := gx.tr.PutAsync(transport.GradKey(gx.tag, step, slot, uint64(c)), b, gx.retry)
			tickets <- putTicket{c, len(b), h}
		}
	}
	r.plan.Reset()
	var onGrad func(*nn.Param)
	if overlap {
		onGrad = ship
	}
	res, err := r.pass.run(x, crossEntropy(labels), onGrad)
	if err == nil {
		for _, p := range r.plan.Unproduced() {
			ship(p)
		}
		err = shipErr
	}
	close(tickets)
	if err != nil {
		board.fail(err)
	}
	return res, err
}

// allReduce is gradient policy all-reduce: the state one data-parallel
// step works on.
type allReduce struct {
	cfg     Config
	dp      DPOptions
	ds      *data.Classification
	reps    []*dpReplica
	reducer *gradExchange
	board   *gradBoard

	microX  []*tensor.Tensor
	microY  [][]int
	results []stepResult // per microbatch
	reduced []float32
}

// step runs one data-parallel training step: M microbatches over the K
// replicas, the fixed-order reduction, and every replica's import and
// optimizer update.
func (a *allReduce) step(epoch, b int) (stepResult, error) {
	K, M := a.dp.Replicas, a.dp.Microbatches
	step := uint64(epoch*a.cfg.BatchesPerEpoch + b)
	// The driver draws all M microbatches in order — the data stream is
	// sequential, so this is what pins the trajectory to M rather than K.
	for m := 0; m < M; m++ {
		a.microX[m], a.microY[m] = a.ds.Batch(a.cfg.BatchSize)
	}

	// Phases 1+2: every worker runs its share of microbatches, shipping
	// gradient buckets as backward produces them, while the reducer
	// streams them into the fixed-order accumulation beside the workers.
	// SerialExchange is the same code with the overlap taken out: no
	// OnGrad hook, and the reducer starts once the workers have finished.
	overlap := !a.dp.SerialExchange
	var lead nn.NetState // microbatch 0's post-forward state
	errs := make([]error, K)
	redErr := make(chan error, 1)
	reduce := func() { redErr <- a.reducer.reduceStreaming(a.board, step, M, a.reduced) }
	a.board.reset()
	if overlap {
		go reduce()
	}
	var wg, putWG sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := a.reps[k]
			pre := nn.CaptureNetState(r.model.Net)
			for m := k; m < M; m += K {
				nn.RestoreNetState(r.model.Net, nn.SaltNetState(pre, uint64(m)))
				for _, p := range r.model.Net.Params() {
					p.ZeroGrad()
				}
				if a.results[m], errs[k] = r.microbatch(step, m, a.microX[m], a.microY[m], overlap, a.board, &putWG); errs[k] != nil {
					return
				}
				if m == 0 {
					lead = nn.CaptureNetState(r.model.Net)
				}
			}
		}(k)
	}
	wg.Wait()
	putWG.Wait()
	if !overlap {
		reduce()
	}
	// A failed worker has failed the board, so the reducer observes it
	// and exits rather than waiting for buckets that will never come.
	rerr := <-redErr
	for _, err := range append(errs, rerr) {
		if err != nil {
			return stepResult{}, err
		}
	}
	if err := a.reducer.put(step, 0, a.reduced); err != nil {
		return stepResult{}, err
	}
	for m := 0; m < M; m++ {
		a.reducer.del(step, uint64(m+1), len(a.reduced))
	}

	// Phase 3: every replica adopts the lead state, imports the reduced
	// gradient (scaled 1/M exactly once) and steps.
	scale := 1 / float32(M)
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := a.reps[k]
			nn.RestoreNetState(r.model.Net, lead)
			if errs[k] = r.gx.get(step, 0, r.flat); errs[k] != nil {
				return
			}
			nn.ImportGrads(r.model.Net, r.flat, scale)
			r.opt.Step(r.model.Net.Params())
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stepResult{}, err
		}
	}
	a.reducer.del(step, 0, len(a.reduced))

	var sum stepResult
	for _, res := range a.results {
		sum.add(res)
	}
	sum.loss /= float64(M)
	return sum, nil
}

// ClassifierDataParallel trains a classification model across
// dp.Replicas workers with compressed gradient exchange over the
// activation-store transport: activation policy none, gradient policy
// all-reduce. newModel must build identical replicas on every call (seed
// the weight RNG inside it); it is called K times. The returned snapshot
// aggregates the exchange counters of every client. Final weights are
// bit-identical for any Replicas value, any BucketBytes, and with
// SerialExchange on or off.
func ClassifierDataParallel(newModel func() *models.Model, ds *data.Classification, cfg Config, dp DPOptions) (Report, transport.Snapshot, error) {
	return dataParallel(newModel, ds, cfg, dp, nil)
}

// dataParallel is ClassifierDataParallel with the replicas' activation
// policy open: activations (optional) configures replica k's pass before
// training — the seam the policy-matrix test composes DP × offload
// through. No public option exposes it yet.
func dataParallel(newModel func() *models.Model, ds *data.Classification, cfg Config, dp DPOptions, activations func(k int, p *pass)) (Report, transport.Snapshot, error) {
	cfg = cfg.withDefaults()
	dp = dp.withDefaults()
	K, M := dp.Replicas, dp.Microbatches
	counters := &transport.Counters{}
	fail := func(format string, args ...any) (Report, transport.Snapshot, error) {
		return Report{}, counters.Snapshot(), fmt.Errorf("train: "+format, args...)
	}
	// The gradient key packs step, slot and chunk into fixed-width fields
	// and masks what does not fit; a count past a field would alias
	// another key and silently average the wrong gradients.
	switch steps := cfg.Epochs * cfg.BatchesPerEpoch; {
	case K > M:
		return fail("%d replicas exceed %d microbatches", K, M)
	case M+1 > transport.GradMaxSlots:
		return fail("%d microbatches exceed the gradient key's %d slots", M, transport.GradMaxSlots-1)
	case steps > transport.GradMaxSteps:
		return fail("%d steps (Epochs × BatchesPerEpoch) exceed the gradient key's %d", steps, transport.GradMaxSteps)
	}
	chunkElems := max(dp.BucketBytes/4, 1)

	retry := transport.Retry{
		Attempts: 8, Backoff: time.Millisecond,
		Total: dp.StoreTimeout, OpTimeout: storeOpTimeout(dp.StoreTimeout),
	}
	var shared transport.Transport
	if dp.StoreDial == nil {
		// One in-process backend shared by every worker (it is
		// mutex-guarded); closing it once at the end suffices.
		shared = transport.NewLocal(nil, counters)
		defer shared.Close()
	}
	tag := transport.GradTag(cfg.Seed)
	pipe := codec.New(quant.OptL()) // DQT unused by the gradient codec
	newExchange := func() *gradExchange {
		tr := shared
		if tr == nil {
			tr = newStoreClient(dp.StoreDial, counters, dp.StoreTimeout, func(c *transport.NetClient) {
				if dp.SerialExchange {
					c.Window = 1 // stop-and-wait wire ops
				}
				if dp.ClientHook != nil {
					dp.ClientHook(c)
				}
			})
		}
		return &gradExchange{
			tr: tr, pipe: pipe,
			tag: tag, retry: retry, chunk: chunkElems, counters: counters,
		}
	}

	a := &allReduce{cfg: cfg, dp: dp, ds: ds, reps: make([]*dpReplica, K), board: newGradBoard()}
	var gradSize int
	for k := range a.reps {
		r := &dpReplica{model: newModel(), opt: cfg.newOptimizer(), gx: newExchange()}
		if shared == nil {
			defer r.gx.tr.Close()
		}
		a.reps[k] = r
		if k == 0 {
			gradSize = nn.GradSize(r.model.Net)
		} else if nn.GradSize(r.model.Net) != gradSize {
			return fail("replica %d gradient size differs — newModel is not deterministic", k)
		}
		r.flat = make([]float32, gradSize)
		r.plan = nn.NewBucketPlan(r.model.Net, chunkElems)
		r.pass = &pass{net: r.model.Net, arena: tensor.NewArena()} // one arena per replica
		if activations != nil {
			activations(k, r.pass)
		}
	}
	a.reducer = newExchange()
	if shared == nil {
		defer a.reducer.tr.Close()
	}
	if chunks := a.reducer.chunkCount(gradSize); chunks > transport.GradMaxChunks {
		return fail("a %d-element gradient in %d-byte buckets is %d chunks; the gradient key holds %d — raise BucketBytes",
			gradSize, 4*chunkElems, chunks, transport.GradMaxChunks)
	}
	a.microX = make([]*tensor.Tensor, M)
	a.microY = make([][]int, M)
	a.results = make([]stepResult, M)
	a.reduced = make([]float32, gradSize)

	lead := a.reps[0].model
	rep := Report{
		ModelName:  lead.Name,
		MethodName: fmt.Sprintf("dp(K=%d,M=%d,%s)", K, M, frame.CodecGradRaw),
	}
	if dp.StoreDial != nil {
		rep.MethodName += "+netstore"
	}
	l := loop{cfg: cfg, step: a.step, validate: classifierValidation(lead.Net, a.reps[0].pass.arena, ds, cfg)}
	if dp.Verbose {
		l.verbose = func(e EpochStats) {
			s := counters.Snapshot()
			fmt.Printf("epoch %d: loss=%.4f acc=%.3f grad_puts=%d grad_gets=%d grad_bytes=%d retried=%d reconnects=%d\n",
				e.Epoch, e.Loss, e.Score, s.GradPuts, s.GradGets, s.BytesGrad, s.Retried, s.Reconnects)
		}
	}
	err := l.run(&rep)
	rep.WeightsDigest = weightsDigest(lead.Net)
	return rep, counters.Snapshot(), err
}
