package offload

import (
	"fmt"
	"sync"

	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/transport"
	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// EngineConfig selects how the scheduler layer overlaps offload traffic
// with compute.
type EngineConfig struct {
	// Async enables the pipelined engine. When false every Engine call
	// degenerates to the synchronous Store operation — the two paths
	// produce bit-identical channel traffic by construction.
	Async bool
	// Prefetch is the restore lookahead during the backward pass: how
	// many verified frames may sit staged ahead of demand. <= 0
	// restores strictly on demand.
	Prefetch int
	// InFlightBytes bounds the encoded-but-not-yet-committed bytes held
	// by workers (0 = unlimited). The commit head is always admitted so
	// the pipeline cannot deadlock on a single oversized frame.
	InFlightBytes int
}

// EngineStats counts scheduler-level events (channel/recovery counters
// live in Store.Stats; these describe only overlap quality).
type EngineStats struct {
	PrefetchHits  uint64 // restores whose tensor was already staged
	PrefetchWaits uint64 // restores that had to wait on the prefetcher
	MaxInFlight   int    // high-water mark of encoded bytes awaiting commit
	DemandFetches uint64 // on-demand fetches issued past the lookahead window
}

// encResult is one encoded activation waiting in the reorder buffer for
// its turn on the channel.
type encResult struct {
	ref  *nn.ActRef
	data []byte
	mask []bool
	err  error
}

// fetchTask is one prefetched restore: the prefetcher stages the
// verified frame (or the terminal read error) and closes done. Decoding
// happens in the consumer, so the channel never idles behind codec work.
type fetchTask struct {
	ref     *nn.ActRef
	ent     *entry
	done    chan struct{}
	staged  *frame.Frame
	err     error
	counted bool // holds a lookahead slot until consumed
}

// prefetchState is one backward pass's restore plan: every resident
// entry at PrepareBackward time, in reverse-offload order.
type prefetchState struct {
	tasks  []*fetchTask
	byRef  map[*nn.ActRef]*fetchTask
	next   int        // index the prefetcher will fetch next
	ready  int        // staged-but-unconsumed tasks (lookahead budget)
	demand *fetchTask // consumer-requested task past the window
	flush  bool       // finish every remaining read, ignoring the window
	active bool
}

// Engine is the scheduler layer of the offload stack: it accepts
// non-blocking offload requests as the forward pass produces
// activations, encodes them on a worker pool under an in-flight byte
// budget, and commits the encoded frames to the transport in strict
// submission order — so the channel (and any fault injector attached to
// it) sees exactly the sequence a synchronous run would. During the
// backward pass it prefetches restores in reverse-offload order,
// double-buffered ahead of demand.
//
// A zero Prefetch falls back to on-demand restores; Async=false makes
// every call the degenerate synchronous Store operation. One engine
// serves one training loop; it is not safe for concurrent steps.
type Engine struct {
	store *Store
	cfg   EngineConfig
	pool  *parallel.Pool

	mu   sync.Mutex
	cond *sync.Cond

	// Offload pipeline (reset each step).
	seen       map[*nn.ActRef]bool
	submitted  int
	nextCommit int // next sequence to *issue* (wire order)
	finished   int // sequences fully committed (acknowledged)
	committing bool
	results    map[int]encResult
	inflight   int
	origBytes  int
	firstErr   error

	// Restore pipeline (reset each step).
	pf       *prefetchState
	pfGen    int
	repaired bool // a recompute rebuilt the step; stale refs tolerated

	maxInflight   int
	hits, waits   uint64
	demandFetches uint64
}

// NewEngine wraps a store in a scheduler. The encode pool is started
// lazily on the first async step; Close releases it.
func NewEngine(s *Store, cfg EngineConfig) *Engine {
	e := &Engine{store: s, cfg: cfg}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Store returns the underlying store.
func (e *Engine) Store() *Store { return e.store }

// Async reports whether the engine runs the pipelined path.
func (e *Engine) Async() bool { return e.cfg.Async }

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
	if e.cfg.Async && e.pool == nil {
		e.pool = parallel.NewPool(0) // parallel.Workers() encoders
	}
	e.mu.Lock()
	e.seen = map[*nn.ActRef]bool{}
	e.submitted, e.nextCommit, e.finished = 0, 0, 0
	e.results = map[int]encResult{}
	e.inflight = 0
	e.firstErr = nil
	e.origBytes = 0
	e.repaired = false
	e.pf = nil
	e.mu.Unlock()
}

// Offload submits one activation for offload. In async mode it returns
// immediately — encoding happens on the pool, and the frame is committed
// to the channel in submission order once its predecessors have landed.
// Duplicate refs and refs without a live tensor are skipped, matching
// Store.OffloadAll. Errors surface at EndForward.
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
	e.origBytes += ref.T.Bytes()
	if !e.cfg.Async {
		e.mu.Unlock()
		if err := e.store.Offload(ref); err != nil {
			e.mu.Lock()
			if e.firstErr == nil {
				e.firstErr = err
			}
			e.mu.Unlock()
		}
		return
	}
	x := ref.T
	seq := e.submitted
	e.submitted++
	e.mu.Unlock()
	e.pool.Submit(func() { e.encodeAndCommit(seq, ref, x) })
}

// encodeAndCommit runs on a pool worker: pure codec work first, then the
// result enters the reorder buffer and is committed once it is the head.
func (e *Engine) encodeAndCommit(seq int, ref *nn.ActRef, x *tensor.Tensor) {
	res := encResult{ref: ref}
	enc, err := e.store.pipeline().Encode(ref.Kind, x)
	if err != nil {
		res.err = fmt.Errorf("offload: offload %q (%s): %w", ref.Name, ref.Kind, err)
	} else {
		res.data = frame.EncodeFrame(enc.Frame)
		res.mask = enc.Mask
	}
	n := len(res.data)
	e.mu.Lock()
	// In-flight budget: the commit head is always admitted (progress
	// guarantee); everyone else waits for space.
	for e.cfg.InFlightBytes > 0 && seq != e.nextCommit && e.inflight+n > e.cfg.InFlightBytes {
		e.cond.Wait()
	}
	e.inflight += n
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
		_, cerr := e.store.commitWait(t)
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
			fifo.Push(e.store.commitIssue(res.ref, res.data, res.mask))
			e.mu.Lock()
			e.cond.Broadcast()
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

// EndForward offloads any refs the streaming hooks missed (or, in sync
// mode, all of them), then barriers until every submitted frame has been
// committed to the channel. It returns the original and compressed byte
// totals for the step.
func (e *Engine) EndForward(refs []*nn.ActRef) (orig, comp int, err error) {
	for _, ref := range refs {
		e.Offload(ref)
	}
	e.mu.Lock()
	for e.cfg.Async && e.finished < e.submitted {
		e.cond.Wait()
	}
	orig = e.origBytes
	err = e.firstErr
	e.mu.Unlock()
	return orig, e.store.HostBytes(), err
}

// PrepareBackward readies the restore side. Sync mode restores
// everything eagerly (the degenerate case); async mode with Prefetch > 0
// snapshots the resident entries newest first and starts the prefetcher
// on that plan; Prefetch <= 0 leaves restores on demand.
func (e *Engine) PrepareBackward() error {
	if !e.cfg.Async {
		return e.store.RestoreAll()
	}
	if e.cfg.Prefetch <= 0 {
		return nil
	}
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
	gen := e.pfGen
	e.mu.Unlock()
	go e.prefetchLoop(pf, gen)
	return nil
}

// prefetchLoop is the single fetch goroutine: it walks the snapshot in
// order, staging up to Prefetch verified frames ahead of consumption
// and keeping as many staging GETs issued on the wire as the transport's
// window allows (responses complete in issue order — the transport is
// FIFO — so batching issues overlaps round trips without reordering
// anything). Being alone on the transport's read side keeps the request
// sequence — and therefore any injected fault pattern — deterministic.
// A consumer blocked on a task past the lookahead sets demand, which
// lets the loop run ahead of the budget without changing the order.
// Only the wire read and CRC check run here; decode is left to the
// consumer so the next read can start immediately.
func (e *Engine) prefetchLoop(pf *prefetchState, gen int) {
	type issuedRead struct {
		ft *fetchTask
		tk ticket
	}
	s := e.store
	fifo := transport.NewFIFO(s.transportOf(), func(in issuedRead) error {
		f, err := s.readWait(in.tk)
		e.mu.Lock()
		in.ft.staged, in.ft.err = f, err
		in.ft.counted = true
		pf.ready++
		if pf.demand == in.ft {
			pf.demand = nil
		}
		close(in.ft.done)
		e.cond.Broadcast()
		e.mu.Unlock()
		return nil // staged on the task for its consumer
	})
	defer func() {
		// Responses for issued reads are already on the wire; consume
		// them even on cancellation so every started task's done closes
		// and the transport stream stays position-deterministic.
		fifo.Drain()
		e.mu.Lock()
		pf.active = false
		e.cond.Broadcast()
		e.mu.Unlock()
	}()
	for {
		e.mu.Lock()
		issuable := func() bool {
			return pf.next < len(pf.tasks) && !fifo.Full() &&
				(pf.flush || pf.demand != nil || pf.ready+fifo.Len() < e.cfg.Prefetch)
		}
		for gen == e.pfGen && !issuable() && fifo.Len() == 0 && pf.next < len(pf.tasks) {
			e.cond.Wait()
		}
		if gen != e.pfGen {
			e.mu.Unlock()
			return
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

		// Skip entries no longer resident (consumed inline, or replaced
		// by a recompute rebuild); they hold no lookahead slot.
		if !s.current(ft.ref, ft.ent) {
			e.mu.Lock()
			if pf.demand == ft {
				pf.demand = nil
			}
			close(ft.done)
			e.cond.Broadcast()
			e.mu.Unlock()
			continue
		}
		fifo.Push(issuedRead{ft: ft, tk: s.readIssue(ft.ent, ft.ref)})
	}
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

// Restore brings one activation back. With the prefetcher running it
// consumes the staged tensor (waiting for it if the fetch is still in
// flight); otherwise it falls back to the synchronous path. A ref made
// stale by a recompute rebuild resolves to nil once the step is marked
// repaired.
func (e *Engine) Restore(ref *nn.ActRef) error {
	if !e.cfg.Async {
		return e.store.Restore(ref)
	}
	s := e.store
	ent, ok := s.lookup(ref)

	e.mu.Lock()
	pf := e.pf
	var ft *fetchTask
	if pf != nil {
		ft = pf.byRef[ref]
	}
	if !ok {
		e.mu.Unlock()
		return e.notResident(ref)
	}
	if ft == nil || ft.ent != ent {
		// No prefetch plan covers this entry (on-demand mode, or an
		// entry re-offloaded after the snapshot): synchronous restore
		// with the full recovery policy.
		e.demandFetches++
		e.mu.Unlock()
		return e.store.Restore(ref)
	}
	select {
	case <-ft.done:
		e.hits++
	default:
		e.waits++
		pf.demand = ft
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	<-ft.done

	// Re-check residency: the prefetcher may have skipped a stale task,
	// or a recompute (triggered by an earlier restore) rebuilt the step
	// while we waited.
	cur, still := s.lookup(ref)
	if !still || cur != ft.ent {
		e.release(pf, ft)
		if !still {
			return e.notResident(ref)
		}
		return e.store.Restore(ref)
	}
	if ft.err != nil {
		e.release(pf, ft)
		return e.escalate(ref, ft.ent, ft.err)
	}
	t, pl, derr := s.decodeFrame(ref, ft.staged)
	if derr != nil {
		e.release(pf, ft)
		return e.escalate(ref, ft.ent, derr)
	}
	s.finishRestore(ref, ft.ent, t, pl)
	e.release(pf, ft)
	return nil
}

// notResident resolves a restore of a ref the store no longer holds: nil
// when it was already restored (a shared ref) or replaced by a recompute
// rebuild, ErrNotStored otherwise.
func (e *Engine) notResident(ref *nn.ActRef) error {
	e.mu.Lock()
	repaired := e.repaired
	e.mu.Unlock()
	if ref.T != nil || ref.Mask != nil || ref.Coef != nil || repaired {
		return nil
	}
	return fmt.Errorf("offload: restore %q (%s): %w", ref.Name, ref.Kind, ErrNotStored)
}

// escalate handles a corruption the prefetcher discovered
// asynchronously: the prefetch plan is flushed first — the prefetcher
// completes every remaining read, not just the one in flight — so the
// channel has seen a run-independent sequence of transfers before the
// recovery policy's own traffic starts (a stop at the in-flight read
// would cut at a scheduling-dependent point and make the fault
// counters irreproducible). The flushed results are discarded. Under
// PolicyRecompute the hook then rebuilds the step, the engine marks it
// repaired, and the remaining activations are restored synchronously —
// the refs in flight before the rebuild are stale and resolve to nil.
func (e *Engine) escalate(ref *nn.ActRef, ent *entry, err error) error {
	e.flushPrefetch()
	// The store's policy decides; it returns nil only when the recompute
	// hook has rebuilt the step.
	if err := e.store.recover(ref, ent, err); err != nil {
		return err
	}
	e.mu.Lock()
	e.repaired = true
	e.mu.Unlock()
	return e.store.RestoreAll()
}

// flushPrefetch drives the prefetch plan to completion: the loop reads
// every remaining resident entry in plan order, ignoring the lookahead
// window, and the drained plan is returned (nil if none was running).
// Because the whole plan is read exactly once, the channel's transfer
// sequence — and any seeded fault pattern riding on it — is identical
// across runs no matter where the prefetcher happened to be.
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

// consumeLeftover finishes one flushed task the backward pass never
// asked for: still-resident, cleanly-read entries are decoded and
// restored (exactly what RestoreAll would have done, minus the second
// channel read); stale or failed tasks are left for the synchronous
// sweep so the recovery policy applies.
func (e *Engine) consumeLeftover(ft *fetchTask) {
	<-ft.done
	if ft.err != nil || ft.staged == nil {
		return
	}
	s := e.store
	if !s.current(ft.ref, ft.ent) {
		return
	}
	if t, pl, err := s.decodeFrame(ft.ref, ft.staged); err == nil {
		s.finishRestore(ft.ref, ft.ent, t, pl)
	}
}

// stopPrefetch cancels the prefetch plan and waits for the loop to exit,
// so no channel read races whatever the caller does next. Staged frames
// whose entries are still resident are discarded unconsumed — their
// entries remain in the store for a later synchronous restore. Only
// Abort uses this (a failed step must not keep touching the channel);
// the healthy paths flush instead, for reproducible transfer counts.
func (e *Engine) stopPrefetch() {
	e.mu.Lock()
	pf := e.pf
	if pf == nil {
		e.mu.Unlock()
		return
	}
	e.pf = nil
	e.pfGen++
	e.cond.Broadcast()
	for pf.active {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// EndStep finishes the restore side: the prefetch plan is flushed and
// its unconsumed reads restored in plan order, then any entries still
// resident (post-rebuild strays, or tasks the flush left for the
// recovery policy) are drained synchronously. In the common case the
// backward pass consumed the whole plan and both phases are no-ops.
func (e *Engine) EndStep() error {
	if !e.cfg.Async {
		return nil
	}
	if pf := e.flushPrefetch(); pf != nil {
		for _, ft := range pf.tasks {
			e.consumeLeftover(ft)
		}
	}
	return e.store.RestoreAll()
}

// Abort tears down the step's pipelines without draining the store —
// the path for a failed step, where the remaining entries may be
// corrupt and must stay resident for the caller to inspect.
func (e *Engine) Abort() {
	if !e.cfg.Async {
		return
	}
	e.mu.Lock()
	for e.finished < e.submitted {
		e.cond.Wait()
	}
	e.mu.Unlock()
	e.stopPrefetch()
}

// Close releases the encode pool. The engine must be between steps.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
}
