package offload

import (
	"fmt"
	"math"
	"sync"

	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/transport"
	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// lookahead is the restore lookahead during the backward pass: how many
// verified frames may sit staged ahead of demand, and the length of the
// held tail (see Engine). The staged objects are verified compressed
// frames, so a window a little deeper than a residual block's burst of
// refs costs almost nothing and keeps the channel busy through the
// bursts. The encode workers' in-flight bytes are left unbounded.
const lookahead = 4

// EngineConfig selects nothing: the engine has one schedule.
type EngineConfig struct {
	// Async selects nothing: the engine always runs the pipelined path.
	// It is kept only so bench/ compiles against it.
	Async bool
	// Prefetch selects nothing: the restore lookahead is fixed at 4. It
	// is kept only so bench/ compiles against it.
	Prefetch int
}

// EngineStats counts scheduler-level events (channel/recovery counters
// live in Store.Stats; these describe only overlap quality).
type EngineStats struct {
	PrefetchHits  uint64 // restores whose tensor was already staged
	PrefetchWaits uint64 // restores that had to wait on the prefetcher
	MaxInFlight   int    // high-water mark of encoded bytes awaiting commit
	DemandFetches uint64 // restores blocked on a frame not yet read, which let the prefetcher past its window
}

// Bytes counts saved-activation bytes: Orig at float32, Comp as their
// frames carry them — payload plus scales, without the container header,
// which is the footprint the paper's ratios count.
type Bytes struct{ Orig, Comp int }

// encResult is one encoded activation waiting in the reorder buffer for
// its turn on the channel.
type encResult struct {
	ref  *nn.ActRef
	data []byte
	mask []bool
	hold bool
	err  error
}

// fetchTask is one prefetched restore: the prefetcher reads the verified
// frame and hands it to the encode pool, which decodes it, stages the
// result (or the read or decode error) and closes done. The channel never
// idles behind codec work, and the backward pass only consumes.
type fetchTask struct {
	ref     *nn.ActRef
	ent     *entry
	done    chan struct{} // closed once t (nil for a BRC frame) or err is staged
	read    bool          // the read has completed
	t       *tensor.Tensor
	err     error
	counted bool // holds a lookahead slot until consumed (a frame held in its entry never does)
}

// prefetchState is one backward pass's restore plan: every resident
// entry at PrepareBackward time, in reverse-offload order. Nothing is
// offloaded until the step ends, so the plan covers every restore the
// step makes, and each entry is read exactly once. A plan ends only by
// a flush.
type prefetchState struct {
	tasks []*fetchTask
	// byRef holds the tasks no restore has consumed yet.
	byRef  map[*nn.ActRef]*fetchTask
	next   int        // index the prefetcher will fetch next
	ready  int        // staged-but-unconsumed tasks (lookahead budget)
	demand *fetchTask // consumer-requested task past the window
	flush  bool       // finish every remaining read, ignoring the window
	active bool
}

// Engine is the scheduler layer of the offload stack: it accepts
// non-blocking offload requests as the forward pass produces
// activations, encodes them on a worker pool, and commits the encoded
// frames to the transport in strict submission order. That order is the
// order Offload is called in: the save hooks' emission order, then the
// EndForward sweep in SavedRefs order. During the backward pass it
// prefetches restores in reverse-offload order, double-buffered ahead of
// demand.
//
// The held tail: the frames forward submits last are the ones backward
// reads first, so their round trip cannot hide behind compute. From an
// engine's second step on, every submission whose index is at least the
// previous step's submission count minus lookahead stays on the device:
// it is encoded and its tensor released at commit like any other frame,
// but its framed bytes stay in its store entry, and its restore takes
// them through the same CRC check and decode as a wire frame with no
// transport op. The rule reads only submission indices, never timing.
//
// One engine serves one training loop; it is not safe for concurrent
// steps.
type Engine struct {
	store *Store
	pool  *parallel.Pool

	mu   sync.Mutex
	cond *sync.Cond

	// Offload pipeline (reset each step).
	seen       map[*nn.ActRef]bool
	submitted  int  // submissions this step
	holdFrom   int  // submissions with this index or above stay on the device
	stepped    bool // a step has begun, so submitted is the last step's count
	nextCommit int  // next sequence to *issue* (wire order)
	finished   int  // sequences fully committed (acknowledged)
	committing bool
	results    map[int]encResult
	inflight   int
	sizes      map[compress.Kind]Bytes // this step's, per kind
	firstErr   error

	// Restore pipeline (reset each step).
	pf *prefetchState

	maxInflight   int
	hits, waits   uint64
	demandFetches uint64
}

// NewEngine wraps a store in a scheduler and opens its encode pool, at
// most parallel.Workers() encodes at once on the parallel package's
// helpers; Close waits for it. The config selects nothing.
func NewEngine(s *Store, _ EngineConfig) *Engine {
	e := &Engine{store: s, pool: parallel.NewPool(0)}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Store returns the underlying store.
func (e *Engine) Store() *Store { return e.store }

// Async returns true: the engine has one, pipelined, mode. It is kept
// only so bench/ compiles against it.
func (e *Engine) Async() bool { return true }

// Stats returns a snapshot of the scheduler counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		PrefetchHits:  e.hits,
		PrefetchWaits: e.waits,
		MaxInFlight:   e.maxInflight,
		DemandFetches: e.demandFetches,
	}
}

// BeginStep resets the per-step pipeline state. The previous step must
// have been finished with EndStep or Abort.
func (e *Engine) BeginStep() {
	e.mu.Lock()
	e.holdFrom = math.MaxInt
	if e.stepped {
		e.holdFrom = e.submitted - lookahead
	}
	e.stepped = true
	e.seen = map[*nn.ActRef]bool{}
	e.submitted, e.nextCommit, e.finished = 0, 0, 0
	e.results = map[int]encResult{}
	e.inflight = 0
	e.firstErr = nil
	e.sizes = map[compress.Kind]Bytes{}
	e.pf = nil
	e.mu.Unlock()
}

// Offload submits one activation for offload and returns immediately:
// encoding happens on the pool, and the frame is committed in
// submission order once its predecessors have landed. A submission in
// the held tail stays on the device. Duplicate refs and refs without a
// live tensor are skipped. Errors surface at EndForward.
func (e *Engine) Offload(ref *nn.ActRef) {
	if ref == nil {
		return
	}
	e.mu.Lock()
	if e.seen == nil {
		e.seen = map[*nn.ActRef]bool{}
	}
	if e.seen[ref] || ref.T == nil {
		e.mu.Unlock()
		return
	}
	e.seen[ref] = true
	e.count(ref.Kind, Bytes{Orig: ref.T.Bytes()})
	seq := e.submitted
	e.submitted++
	hold := seq >= e.holdFrom
	x := ref.T
	e.mu.Unlock()
	e.pool.Submit(func() { e.encodeAndCommit(seq, ref, x, hold) })
}

// encodeAndCommit runs on a pool worker: pure codec work first, then the
// result enters the reorder buffer and is committed once it is the head.
func (e *Engine) encodeAndCommit(seq int, ref *nn.ActRef, x *tensor.Tensor, hold bool) {
	res := encResult{ref: ref, hold: hold}
	var comp int
	enc, err := e.store.Codec.Encode(ref.Kind, x)
	if err != nil {
		res.err = fmt.Errorf("offload: offload %q (%s): %w", ref.Name, ref.Kind, err)
	} else {
		res.data = frame.EncodeFrame(enc.Frame)
		res.mask = enc.Mask
		comp = len(enc.Frame.Payload) + 4*len(enc.Frame.Scales)
	}
	e.mu.Lock()
	e.count(ref.Kind, Bytes{Comp: comp})
	e.inflight += len(res.data)
	if e.inflight > e.maxInflight {
		e.maxInflight = e.inflight
	}
	e.results[seq] = res
	if !e.committing {
		if _, head := e.results[e.nextCommit]; head {
			// Hand the in-order drain to a dedicated goroutine: the
			// channel Send may be slow (a real DMA), and stalling an
			// encode worker on it would back the pool queue up into the
			// forward pass.
			e.committing = true
			go e.drainCommits()
		}
	}
	e.mu.Unlock()
}

// drainCommits empties the reorder buffer from nextCommit while
// consecutive results are present, keeping as many commit PUTs
// issued-but-unacknowledged as the transport's window allows. Issue
// takes priority over completion — a ready head result goes on the wire
// before the oldest outstanding ticket is waited on — so consecutive
// frames' round trips overlap; both the issues and the completions
// happen in strict sequence order, so the backend sees exactly the Put
// sequence a stop-and-wait drain would. Exactly one drainer runs at a
// time (the committing flag); the transport calls happen outside the
// engine lock so workers keep encoding while the wire sleeps.
func (e *Engine) drainCommits() {
	fifo := transport.NewFIFO(e.store.transportOf(), func(t *commitTicket) error {
		cerr := e.store.commitWait(t)
		e.mu.Lock()
		if cerr != nil && e.firstErr == nil {
			e.firstErr = cerr
		}
		e.inflight -= len(t.data)
		e.finished++
		e.cond.Broadcast()
		e.mu.Unlock()
		return nil // recorded in firstErr; the drain goes on
	})
	e.mu.Lock()
	for {
		res, ready := e.results[e.nextCommit]
		switch {
		case ready && !fifo.Full():
			delete(e.results, e.nextCommit)
			e.nextCommit++
			if res.err != nil {
				// Encode failure: nothing to issue for this sequence.
				if e.firstErr == nil {
					e.firstErr = res.err
				}
				e.inflight -= len(res.data)
				e.finished++
				e.cond.Broadcast()
				continue
			}
			e.mu.Unlock()
			fifo.Push(e.store.commitIssue(res.ref, res.data, res.mask, res.hold))
			e.mu.Lock()
		case fifo.Len() > 0:
			e.mu.Unlock()
			fifo.Settle()
			e.mu.Lock()
		default:
			e.committing = false
			e.cond.Broadcast()
			e.mu.Unlock()
			return
		}
	}
}

// count adds b to kind's step sizes; e.mu is held.
func (e *Engine) count(kind compress.Kind, b Bytes) {
	s := e.sizes[kind]
	e.sizes[kind] = Bytes{Orig: s.Orig + b.Orig, Comp: s.Comp + b.Comp}
}

// EndForward offloads any refs the streaming hooks missed, then barriers
// until every submitted frame has been committed to the channel. It
// returns the step's saved-activation bytes, in total and per kind.
func (e *Engine) EndForward(refs []*nn.ActRef) (total Bytes, byKind map[compress.Kind]Bytes, err error) {
	for _, ref := range refs {
		e.Offload(ref)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.finished < e.submitted {
		e.cond.Wait()
	}
	for _, b := range e.sizes {
		total.Orig += b.Orig
		total.Comp += b.Comp
	}
	return total, e.sizes, e.firstErr
}

// PrepareBackward readies the restore side: it snapshots the resident
// entries newest first and starts the prefetcher on that plan. It always
// returns nil.
func (e *Engine) PrepareBackward() error {
	rs := e.store.residents()
	tasks := make([]*fetchTask, len(rs))
	byRef := make(map[*nn.ActRef]*fetchTask, len(rs))
	for i, r := range rs {
		tasks[i] = &fetchTask{ref: r.ref, ent: r.ent, done: make(chan struct{})}
		byRef[r.ref] = tasks[i]
	}
	e.mu.Lock()
	pf := &prefetchState{tasks: tasks, byRef: byRef, active: true}
	e.pf = pf
	e.mu.Unlock()
	go e.prefetchLoop(pf)
	return nil
}

// prefetchLoop is the single fetch goroutine: it walks the snapshot in
// order, staging up to lookahead verified frames ahead of consumption
// and keeping as many staging GETs issued on the wire as the transport's
// window allows (responses complete in issue order — the transport is
// FIFO — so batching issues overlaps round trips without reordering
// anything). Being alone on the transport's read side keeps the request
// sequence — and therefore any injected fault pattern — deterministic.
// A consumer blocked on a task past the lookahead sets demand, which
// lets the loop run ahead of the budget without changing the order.
// Only the wire read and CRC check run here; decode goes to the encode
// pool, idle during backward, so the next read can start immediately.
func (e *Engine) prefetchLoop(pf *prefetchState) {
	type issuedRead struct {
		ft *fetchTask
		h  *transport.Pending
	}
	s := e.store
	fifo := transport.NewFIFO(s.transportOf(), func(in issuedRead) error {
		ft := in.ft
		f, err := s.readWait(ft.ent, in.h)
		e.mu.Lock()
		ft.read = true
		if ft.ent.held == nil {
			// A frame held in its entry never left the device: staging it
			// takes no lookahead slot from the frames the channel brings.
			ft.counted = true
			pf.ready++
		}
		if pf.demand == ft {
			pf.demand = nil
		}
		e.cond.Broadcast()
		e.mu.Unlock()
		if err != nil {
			e.stage(ft, nil, err)
			return nil // staged on the task for its consumer
		}
		e.pool.Submit(func() {
			t, derr := s.decode(ft.ent, f)
			e.stage(ft, t, derr)
		})
		return nil
	})
	defer func() {
		e.mu.Lock()
		pf.active = false
		e.cond.Broadcast()
		e.mu.Unlock()
	}()
	for {
		e.mu.Lock()
		issuable := func() bool {
			return pf.next < len(pf.tasks) && !fifo.Full() &&
				(pf.flush || pf.demand != nil || pf.ready+fifo.Len() < lookahead)
		}
		for !issuable() && fifo.Len() == 0 && pf.next < len(pf.tasks) {
			e.cond.Wait()
		}
		if !issuable() {
			e.mu.Unlock()
			if fifo.Len() > 0 {
				// Window or lookahead budget full (or plan exhausted):
				// retire the oldest outstanding read.
				fifo.Settle()
				continue
			}
			return // plan exhausted and wire drained
		}
		ft := pf.tasks[pf.next]
		pf.next++
		e.mu.Unlock()
		fifo.Push(issuedRead{ft: ft, h: s.readIssue(ft.ent)})
	}
}

// take hands the staged tensor to its one consumer, or back to its arena
// when the caller discards it; a second take returns nil. Only the step's
// goroutine takes, after done.
func (ft *fetchTask) take() *tensor.Tensor {
	t := ft.t
	ft.t = nil
	return t
}

// stage records a finished fetch on its task and wakes its consumer.
func (e *Engine) stage(ft *fetchTask, t *tensor.Tensor, err error) {
	e.mu.Lock()
	ft.t, ft.err = t, err
	close(ft.done)
	e.cond.Broadcast()
	e.mu.Unlock()
}

// release returns ft's lookahead slot to the prefetcher.
func (e *Engine) release(pf *prefetchState, ft *fetchTask) {
	e.mu.Lock()
	if ft.counted {
		ft.counted = false
		pf.ready--
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// Restore brings one activation back: it consumes the plan's staged
// tensor, waiting for it if the read or decode is still in flight. A ref
// the plan does not hold is a shared ref already restored, or one the
// step never offloaded (ErrNotStored). A failed restore escalates.
func (e *Engine) Restore(ref *nn.ActRef) error {
	e.mu.Lock()
	pf := e.pf
	var ft *fetchTask
	if pf != nil {
		ft = pf.byRef[ref]
	}
	if ft == nil {
		e.mu.Unlock()
		if ref.T != nil || ref.Mask != nil {
			return nil // already restored: a shared ref
		}
		return e.escalate(ref, ErrNotStored)
	}
	delete(pf.byRef, ref)
	select {
	case <-ft.done:
		e.hits++
	default:
		e.waits++
		if !ft.read {
			e.demandFetches++
			pf.demand = ft
			e.cond.Broadcast()
		}
	}
	e.mu.Unlock()
	<-ft.done
	e.release(pf, ft)
	if ft.err != nil {
		return e.escalate(ref, ft.err)
	}
	e.store.finishRestore(ref, ft.ent, ft.take())
	return nil
}

// escalate fails a restore: the plan is discarded and the typed error
// returned with every unrestored entry still resident; the caller aborts
// the step.
func (e *Engine) escalate(ref *nn.ActRef, err error) error {
	e.discard()
	return restoreErr(ref, err)
}

// discard flushes the plan, if one is running, and hands every staged
// tensor back to its arena unconsumed, so no read or decode outlives the
// step.
func (e *Engine) discard() {
	if pf := e.flushPrefetch(); pf != nil {
		for _, ft := range pf.tasks {
			<-ft.done
			ft.take().Release()
		}
	}
}

// flushPrefetch drives the prefetch plan to completion: the loop reads
// every remaining resident entry in plan order, ignoring the lookahead
// window, and the drained plan is returned (nil if none was running).
// Because the whole plan is read exactly once, the channel's transfer
// sequence — and any seeded fault pattern riding on it — is identical
// across runs no matter where the prefetcher happened to be (a stop at
// the in-flight read would cut at a scheduling-dependent point and make
// the fault counters irreproducible).
func (e *Engine) flushPrefetch() *prefetchState {
	e.mu.Lock()
	pf := e.pf
	if pf == nil {
		e.mu.Unlock()
		return nil
	}
	e.pf = nil
	pf.flush = true
	e.cond.Broadcast()
	for pf.active {
		e.cond.Wait()
	}
	e.mu.Unlock()
	return pf
}

// EndStep finishes the restore side: the plan is flushed and each task no
// restore consumed is finished from its one read, in plan order. A failed
// task's entry stays resident, and the first failure's typed error is
// returned. In the common case the backward pass consumed the whole plan
// and this only waits for the prefetcher to exit.
func (e *Engine) EndStep() error {
	pf := e.flushPrefetch()
	if pf == nil {
		return nil
	}
	var err error
	for _, ft := range pf.tasks {
		<-ft.done
		switch {
		case pf.byRef[ft.ref] != ft: // consumed by a Restore
		case ft.err != nil:
			if err == nil {
				err = restoreErr(ft.ref, ft.err)
			}
		default:
			e.store.finishRestore(ft.ref, ft.ent, ft.take())
		}
	}
	return err
}

// Abort tears down the step's pipelines without draining the store —
// the path for a failed step, where the remaining entries may be
// corrupt and must stay resident for the caller to inspect or Reset. A
// plan still running is discarded as a failed restore's is.
func (e *Engine) Abort() {
	e.mu.Lock()
	for e.finished < e.submitted {
		e.cond.Wait()
	}
	e.mu.Unlock()
	e.discard()
}

// Close releases the encode pool. The engine must be between steps.
func (e *Engine) Close() { e.pool.Close() }
