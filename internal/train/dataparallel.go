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
// the production order, microbatch ascending within a chunk), each
// after the worker's PUT it reads has resolved — workers publish their
// PUT handles on an in-process board and the reducer waits on them
// itself — and drains completions through a FIFO reorder buffer in
// exactly the issue order. Overlap therefore changes wall time only:
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
//   - The reduced gradient never leaves the reducer's memory: every
//     replica imports the same slice, scales by 1/M exactly once, and
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
// untouched and are counted at their float32 size, so the compression
// ratio it reports is 1.
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
	// EpochEnd, when set, sees each epoch as the report records it.
	EpochEnd func(EpochStats)
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
// transport as framed chunks, one per bucket of plan. Not safe for
// concurrent use — each worker and the reducer owns one. Decode goes
// through a pooled per-chunk scratch buffer: the exchange runs once per
// chunk per microbatch per step, so fresh allocations here were
// measurable churn.
type gradExchange struct {
	tr       transport.Transport
	pipe     codec.Pipeline
	tag      uint64
	retry    transport.Retry
	plan     *nn.BucketPlan
	counters *transport.Counters

	decBuf []float32 // pooled decode staging (one bucket)
}

// putChunk frames flat's bucket c and ships it under (step, slot),
// returning the PUT's handle. The raw gradient codec copies the values
// into fresh bytes (the wire retains them for resends), so flat is
// reusable as soon as this returns.
func (g *gradExchange) putChunk(step, slot uint64, flat []float32, c int) *transport.Pending {
	lo, hi := g.plan.BucketRange(c)
	x := &tensor.Tensor{Shape: tensor.Shape{N: 1, C: 1, H: 1, W: hi - lo}, Data: flat[lo:hi]}
	enc, err := g.pipe.EncodeGradient(frame.CodecGradRaw, x)
	if err != nil {
		return transport.Resolved(0, nil, err)
	}
	return g.tr.PutAsync(transport.GradKey(g.tag, step, slot, uint64(c)), frame.EncodeFrame(enc.Frame), g.retry)
}

// awaitPut waits for bucket c's PUT under (step, slot), counting the
// landed chunk.
func (g *gradExchange) awaitPut(step, slot uint64, c int, h *transport.Pending) error {
	n, err := h.PutResult()
	if err != nil {
		return fmt.Errorf("grad put step=%d slot=%d chunk=%d: %w", step, slot, c, err)
	}
	g.counters.GradPuts.Add(1)
	g.counters.BytesGrad.Add(int64(n))
	return nil
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

// gradBoard hands the workers' PUT handles to the streaming reducer: a
// GET for (microbatch, chunk) issued before the server acknowledged the
// worker's PUT would race a terminal NotFound, so the reducer takes the
// handle from the board and waits for its result before the GET. fail
// wakes the reducer with a worker's error so it cannot deadlock on a
// bucket that will never be shipped.
type gradBoard struct {
	mu   sync.Mutex
	cond *sync.Cond
	puts map[[2]int]*transport.Pending
	err  error
}

func newGradBoard() *gradBoard {
	b := &gradBoard{puts: map[[2]int]*transport.Pending{}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *gradBoard) publish(m, c int, h *transport.Pending) {
	b.mu.Lock()
	b.puts[[2]int{m, c}] = h
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

// wait returns (microbatch m, chunk c)'s PUT handle once its worker has
// published it, or the board's error if a worker failed first.
func (b *gradBoard) wait(m, c int) (*transport.Pending, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.puts[[2]int{m, c}] == nil && b.err == nil {
		b.cond.Wait()
	}
	if h := b.puts[[2]int{m, c}]; h != nil {
		return h, nil
	}
	return nil, b.err
}

// settle waits for every handle on the board, deletes through g each
// chunk of step whose PUT landed, and empties the board for the next
// step. Called once the workers and the reducer have returned, success
// or not, so a failed step still leaves every PUT resolved, its counters
// final and none of its chunks on a shared store.
func (b *gradBoard) settle(g *gradExchange, step uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, h := range b.puts {
		if h.Err() == nil {
			// Best-effort: the step's verdict is already decided, and a
			// chunk the delete misses costs store memory, not a result.
			_ = g.tr.Delete(transport.GradKey(g.tag, step, uint64(k[0]), uint64(k[1])))
		}
	}
	clear(b.puts)
	b.err = nil
}

// reduceStreaming zeroes reduced and accumulates all M microbatch
// vectors of step into it, running concurrently with the workers that
// produce them. GETs are issued in one fixed global order — chunk
// descending (tail buckets are published first, since backward runs in
// reverse network order), microbatch ascending within a chunk — each
// after the PUT handle the board hands over has resolved, and
// completions drain through the FIFO reorder buffer in exactly the
// issue order. Per gradient element the float32 adds therefore happen
// microbatch 0..M-1 regardless of K, bucket size, wire timing or when
// the reducer was started, and the first failure in that order is the
// verdict.
func (g *gradExchange) reduceStreaming(board *gradBoard, step uint64, M int, reduced []float32) error {
	clear(reduced)
	if _, n := g.plan.BucketRange(0); cap(g.decBuf) < n {
		g.decBuf = make([]float32, n)
	}
	fifo := transport.NewFIFO(g.tr, func(t getTicket) error {
		lo, hi := g.plan.BucketRange(t.c)
		buf := g.decBuf[:hi-lo]
		if err := g.decodeChunkInto(step, uint64(t.m), t.c, t.h, buf); err != nil {
			return err
		}
		acc := reduced[lo:hi]
		for i, v := range buf {
			acc[i] += v
		}
		return nil
	})
	for c := g.plan.Buckets() - 1; c >= 0; c-- {
		for m := 0; m < M; m++ {
			h, err := board.wait(m, c)
			if err == nil {
				err = g.awaitPut(step, uint64(m), c, h)
			}
			if err != nil {
				fifo.Drain() // so no handle outlives the call; err is the verdict
				return err
			}
			if err := fifo.Reserve(); err != nil {
				return err
			}
			h = g.tr.GetAsync(transport.GradKey(g.tag, step, uint64(m), uint64(c)), g.retry, false)
			fifo.Push(getTicket{m, c, h})
		}
	}
	return fifo.Drain()
}

// dpReplica is one worker's private world: model, optimizer, step body,
// exchange (whose bucket plan the worker's backward drives).
type dpReplica struct {
	model *models.Model
	opt   *nn.SGD
	pass  *pass
	gx    *gradExchange
	flat  []float32 // scratch: this replica's flattened gradient
}

// microbatch differentiates microbatch m through the replica's pass and
// ships its gradient as one async PUT per bucket, publishing each PUT's
// handle to the board as it is issued. With overlap, the pass's OnGrad
// hook copies each finalized parameter into the flat vector and ships
// every bucket that just completed, while backward is still running.
// The post-backward sweep ships whatever the hook did not see
// (topologies outside the container walk) — which, without overlap, is
// everything: the serial exchange is this code with the hook left out.
// Every bucket ships exactly once.
func (r *dpReplica) microbatch(step uint64, m int, x *tensor.Tensor, labels []int, overlap bool, board *gradBoard) (stepResult, error) {
	plan := r.gx.plan
	ship := func(p *nn.Param) {
		off, ok := plan.Offset(p)
		if !ok {
			return
		}
		copy(r.flat[off:off+p.Grad.Elems()], p.Grad.Data)
		for _, c := range plan.Produce(p) {
			board.publish(m, c, r.gx.putChunk(step, uint64(m), r.flat, c))
		}
	}
	plan.Reset()
	var onGrad func(*nn.Param)
	if overlap {
		onGrad = ship
	}
	res, err := r.pass.run(x, crossEntropy(labels), onGrad)
	if err != nil {
		board.fail(err)
		return res, err
	}
	for _, p := range plan.Unproduced() {
		ship(p)
	}
	return res, nil
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
// replicas, the fixed-order reduction, and every replica's import of the
// reduced gradient and optimizer update.
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
	if overlap {
		go reduce()
	}
	var wg sync.WaitGroup
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
				if a.results[m], errs[k] = r.microbatch(step, m, a.microX[m], a.microY[m], overlap, a.board); errs[k] != nil {
					return
				}
				if m == 0 {
					lead = nn.CaptureNetState(r.model.Net)
				}
			}
		}(k)
	}
	wg.Wait()
	if !overlap {
		reduce()
	}
	// A failed worker has failed the board, so the reducer observes it
	// and exits rather than waiting for buckets that will never come.
	rerr := <-redErr
	a.board.settle(a.reducer, step)
	for _, err := range append(errs, rerr) {
		if err != nil {
			return stepResult{}, err
		}
	}

	// Phase 3: every replica adopts the lead state, imports the reduced
	// gradient (scaled 1/M exactly once) straight from the reducer's
	// slice, which they only read, and steps.
	scale := 1 / float32(M)
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := a.reps[k]
			nn.RestoreNetState(r.model.Net, lead)
			nn.ImportGrads(r.model.Net, a.reduced, scale)
			r.opt.Step(r.model.Net.Params())
		}(k)
	}
	wg.Wait()

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
	case M > transport.GradMaxSlots:
		return fail("%d microbatches exceed the gradient key's %d slots", M, transport.GradMaxSlots)
	case steps > transport.GradMaxSteps:
		return fail("%d steps (Epochs × BatchesPerEpoch) exceed the gradient key's %d", steps, transport.GradMaxSteps)
	}
	chunkElems := max(dp.BucketBytes/4, 1)

	retry := transport.Retry{Attempts: 8, Backoff: time.Millisecond, Total: dp.StoreTimeout}
	var shared transport.Transport
	if dp.StoreDial == nil {
		// One in-process backend shared by every worker (it is
		// mutex-guarded; closing it again is harmless).
		shared = transport.NewLocal(nil, counters)
	}
	tag := transport.GradTag()
	pipe := codec.New(quant.OptL()) // DQT unused by the gradient codec
	// newExchange builds one goroutine's exchange over plan; its client
	// closes when training returns.
	newExchange := func(plan *nn.BucketPlan) *gradExchange {
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
		return &gradExchange{tr: tr, pipe: pipe, tag: tag, retry: retry, plan: plan, counters: counters}
	}

	a := &allReduce{cfg: cfg, dp: dp, ds: ds, reps: make([]*dpReplica, K), board: newGradBoard()}
	var gradSize int
	arenas := make([]*tensor.Arena, K) // one per replica
	for k := range a.reps {
		model := newModel()
		r := &dpReplica{model: model, opt: cfg.newOptimizer(), gx: newExchange(nn.NewBucketPlan(model.Net, chunkElems))}
		defer r.gx.tr.Close()
		a.reps[k] = r
		if k == 0 {
			gradSize = nn.GradSize(model.Net)
		} else if nn.GradSize(model.Net) != gradSize {
			return fail("replica %d gradient size differs — newModel is not deterministic", k)
		}
		r.flat = make([]float32, gradSize)
		arenas[k] = tensor.NewArena()
		r.pass = &pass{net: model.Net, arena: arenas[k]}
		if activations != nil {
			activations(k, r.pass)
		}
	}
	a.reducer = newExchange(nn.NewBucketPlan(a.reps[0].model.Net, chunkElems))
	defer a.reducer.tr.Close()
	if chunks := a.reducer.plan.Buckets(); chunks > transport.GradMaxChunks {
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
	l := loop{cfg: cfg, step: a.step, epochEnd: dp.EpochEnd,
		validate: classifierValidation(lead.Net, a.reps[0].pass.arena, ds, cfg)}
	return l.finish(rep, lead.Net, counters, arenas...)
}
