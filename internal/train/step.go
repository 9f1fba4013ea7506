package train

// One training step, one epoch loop. Every trainer in this package is
// the same two pieces with different policies plugged in:
//
//   - pass.run is the step body: forward → loss → activation policy →
//     backward. The activation policy is what happens to the saved
//     activations between the two passes — nothing (the baseline), or an
//     offload through an offload.Engine, which is also how every lossy
//     Table I method runs the paper's functional simulation.
//   - loop.run is the epoch driver around it: batches → divergence
//     check → stats → validation → epoch hook → NaN guard. loop.finish
//     is every trainer's tail: the run, the weights digest, the counters.
//
// The gradient policy is the loop's step function: localStep hands the
// pass's gradients to this worker's optimizer, allReduce.step (see
// dataparallel.go) exchanges them between replicas first. localStep also
// owns the recompute policy: a step whose restore failed runs again from
// its batch.

import (
	"errors"
	"fmt"
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
	"jpegact/internal/offload/transport"
	"jpegact/internal/tensor"
)

// lossFunc scores a batch output, returning the loss and its gradient.
type lossFunc func(out *tensor.Tensor) (float64, *tensor.Tensor)

func crossEntropy(labels []int) lossFunc {
	return func(out *tensor.Tensor) (float64, *tensor.Tensor) {
		return nn.SoftmaxCrossEntropy(out, labels)
	}
}

// stepResult is what one step reports to the epoch statistics.
type stepResult struct {
	loss   float64
	sizes  offload.Bytes                   // saved-activation bytes before and after the policy
	foot   map[compress.Kind]offload.Bytes // the same, per kind
	errSum float64                         // recovered-activation L2 error (if measured)
	errN   int
}

// add accumulates r's loss, bytes and errors into s.
func (s *stepResult) add(r stepResult) {
	s.loss += r.loss
	s.sizes.Orig += r.sizes.Orig
	s.sizes.Comp += r.sizes.Comp
	s.errSum += r.errSum
	s.errN += r.errN
}

// pass is the step body over one network. Without an engine it is
// activation policy none: the saved activations reach backward untouched.
type pass struct {
	net nn.Layer
	eng *offload.Engine // offload policy
	// probe, with eng, measures the recovered-activation error.
	probe errProbe
	// arena serves the step's outputs and gradients, and validation's; it
	// lives as long as the trainer call, so every step reuses the last
	// one's buffers (nil: the heap).
	arena *tensor.Arena
}

// maxRecompute caps whole-step replays per batch under PolicyRecompute;
// beyond it the step fails.
const maxRecompute = 16

// errRestore marks a failed restore — in backward's OnNeed or in the
// engine's EndStep — the one step failure the recompute policy replays.
// Its message is empty, so a marked error reads as the restore's own.
var errRestore = errors.New("")

// restoreFailed marks err with errRestore.
func restoreFailed(err error) error { return fmt.Errorf("%w%w", err, errRestore) }

// restoreAbort carries a restore failure out of the backward pass; the
// hook has no error return, so the step unwinds via panic/recover.
type restoreAbort struct{ err error }

// run differentiates one batch. Backward runs under one merged hook set:
// OnNeed belongs to the activation policy (offload consumes the restore),
// OnGrad to the gradient policy (the caller's, nil for local).
// Every tensor the step drew from the arena goes back to it when the step
// is over, the offload engine's last commit and restore included.
func (p *pass) run(x *tensor.Tensor, lossOf lossFunc, onGrad func(*nn.Param)) (stepResult, error) {
	defer p.arena.Reset()
	x = p.arena.Wrap(x) // the batch itself is not the arena's: a replay runs from it
	hooks := &nn.Hooks{OnGrad: onGrad}
	defer nn.SetHooks(p.net, nil)
	if p.eng != nil {
		p.beginOffload()
	}

	out := p.net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	loss, grad := lossOf(out.T)
	res := stepResult{loss: loss}
	if p.eng == nil {
		res.sizes, res.foot = plainSizes(p.net.SavedRefs())
	} else if err := p.endForward(hooks, &res); err != nil {
		p.eng.Abort()
		return res, err
	}

	nn.SetHooks(p.net, hooks)
	err := backward(p.net, grad)
	if p.eng != nil {
		err = p.endStep(err)
	}
	if err == nil && p.probe != nil {
		res.errSum, res.errN = p.probe.sum(p.net.SavedRefs())
	}
	return res, err
}

// plainSizes is policy none's accounting: every saved activation once,
// at its float32 size before and after.
func plainSizes(refs []*nn.ActRef) (offload.Bytes, map[compress.Kind]offload.Bytes) {
	var total offload.Bytes
	foot := map[compress.Kind]offload.Bytes{}
	seen := map[*nn.ActRef]bool{}
	for _, ref := range refs {
		if seen[ref] || ref.T == nil {
			continue
		}
		seen[ref] = true
		n := ref.T.Bytes()
		total.Orig += n
		f := foot[ref.Kind]
		foot[ref.Kind] = offload.Bytes{Orig: f.Orig + n, Comp: f.Comp + n}
	}
	total.Comp = total.Orig
	return total, foot
}

// errProbe measures the recovered-activation error of an offloaded step
// (Config.MeasureError): each activation is cloned as it is saved, before
// the engine takes it, and compared with what the step restored it to the
// moment it is restored, since its last reader hands the restore back to
// the step arena before backward ends. Only the step's goroutine touches
// it.
type errProbe map[*nn.ActRef]*refErr

// refErr is one saved activation's clone until it is restored, then the
// error of the restore.
type refErr struct {
	before *tensor.Tensor
	l2     float64
}

// save clones ref's activation the first time it is saved. A ref seen
// before may already be the engine's, so its tensor is not read again.
func (e errProbe) save(ref *nn.ActRef) {
	if _, ok := e[ref]; !ok && ref != nil && ref.T != nil {
		e[ref] = &refErr{before: ref.T.Clone()}
	}
}

// restored takes ref's error once its restore is attached, the first
// time only; a BRC ref keeps only its mask and has none.
func (e errProbe) restored(ref *nn.ActRef) {
	if r, ok := e[ref]; ok && r.before != nil && ref.T != nil {
		r.l2 = tensor.L2Error(r.before, ref.T)
		r.before = nil
	}
}

// sum sums the error of every restored activation, each once, in
// SavedRefs order. A ref no backward read was restored by EndStep, so
// its error is taken here.
func (e errProbe) sum(refs []*nn.ActRef) (sum float64, n int) {
	for _, ref := range refs {
		e.restored(ref)
		if r, ok := e[ref]; ok && r.before == nil {
			sum += r.l2
			n++
			delete(e, ref)
		}
	}
	return sum, n
}

// backward runs the backward pass, converting a restoreAbort panic from
// the OnNeed hook back into a marked error.
func backward(net nn.Layer, grad *tensor.Tensor) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ra, ok := r.(restoreAbort)
			if !ok {
				panic(r)
			}
			err = restoreFailed(ra.err)
		}
	}()
	net.Backward(grad)
	return nil
}

// beginOffload opens the engine's step before the forward pass: save
// hooks hand each activation to the engine's encode pool the moment
// forward is done with it.
func (p *pass) beginOffload() {
	p.eng.BeginStep()
	save := p.eng.Offload
	if p.probe != nil {
		clear(p.probe)
		save = func(ref *nn.ActRef) {
			p.probe.save(ref)
			p.eng.Offload(ref)
		}
	}
	nn.SetHooks(p.net, &nn.Hooks{OnSave: save})
}

// endForward closes the offload side of the step and readies the restore
// side: sweep whatever the streaming hooks had to hold back (the
// frontier-adjacent refs), barrier until every frame has been
// committed to the channel, then start the reverse-order prefetcher and
// put the restore into hooks. The frames' sizes go into res.
func (p *pass) endForward(hooks *nn.Hooks, res *stepResult) error {
	refs := p.net.SavedRefs()
	if p.probe != nil {
		for _, ref := range refs {
			p.probe.save(ref)
		}
	}
	var err error
	if res.sizes, res.foot, err = p.eng.EndForward(refs); err != nil {
		return err
	}
	hooks.OnNeed = func(ref *nn.ActRef) {
		if rerr := p.eng.Restore(ref); rerr != nil {
			panic(restoreAbort{rerr})
		}
		if p.probe != nil {
			p.probe.restored(ref)
		}
	}
	return p.eng.PrepareBackward()
}

// endStep closes the engine's step after backward: it aborts the step
// when backward failed, and otherwise drains the restore side, whose
// failure is marked errRestore too.
func (p *pass) endStep(err error) error {
	if err != nil {
		p.eng.Abort()
		return err
	}
	if err := p.eng.EndStep(); err != nil {
		return restoreFailed(err)
	}
	return nil
}

// localStep is gradient policy local: one pass, then this worker's own
// optimizer. A non-finite loss leaves the weights alone; the loop flags
// the divergence.
//
// Under PolicyRecompute a step whose restore failed is replayed from its
// batch, up to maxRecompute times: the aborted step's store entries are
// dropped, the network's forward side effects (BatchNorm running stats,
// the dropout RNG) rewound to before the step and the gradients zeroed,
// then the same batch runs through the ordinary offloaded step, so the
// replay lands on exactly the fault-free step's bits.
func localStep(p *pass, opt *nn.SGD, batch func() (*tensor.Tensor, lossFunc)) func(epoch, b int) (stepResult, error) {
	params := p.net.Params()
	return func(epoch, _ int) (stepResult, error) {
		x, lossOf := batch()
		replay := p.eng != nil && p.eng.Store().Recovery.Policy == offload.PolicyRecompute
		var pre nn.NetState
		if replay {
			pre = nn.CaptureNetState(p.net)
		}
		res, err := p.run(x, lossOf, nil)
		for n := 0; replay && errors.Is(err, errRestore); n++ {
			if n == maxRecompute {
				return res, fmt.Errorf("recompute budget (%d) exhausted: %w", maxRecompute, err)
			}
			store := p.eng.Store()
			store.Reset()
			nn.RestoreNetState(p.net, pre)
			for _, q := range params {
				q.ZeroGrad()
			}
			store.Counters().Recomputed.Add(1)
			res, err = p.run(x, lossOf, nil)
		}
		if err == nil && !nonFinite(res.loss) {
			opt.Step(params)
		}
		return res, err
	}
}

func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// classifierBatch draws one labelled training batch per step.
func classifierBatch(ds *data.Classification, cfg Config) func() (*tensor.Tensor, lossFunc) {
	return func() (*tensor.Tensor, lossFunc) {
		x, labels := ds.Batch(cfg.BatchSize)
		return x, crossEntropy(labels)
	}
}

// classifierValidation draws the held-out batch (now — before any
// training batch, so the data stream order is fixed) and returns the
// accuracy probe the loop runs after every epoch.
func classifierValidation(net nn.Layer, a *tensor.Arena, ds *data.Classification, cfg Config) func() (float64, *tensor.Tensor) {
	valX, valY := ds.Batch(cfg.BatchSize * 8)
	return func() (float64, *tensor.Tensor) {
		out := evaluate(net, a, valX, cfg.BatchSize)
		return nn.Accuracy(out, valY), out
	}
}

// evaluate runs the eval-mode forward over x in chunks of batch samples
// through the arena — a training step's shapes, so the step's buffers
// serve it — and gathers the outputs into one heap tensor. Every eval
// layer is per sample, so the outputs are the one-pass forward's.
func evaluate(net nn.Layer, a *tensor.Arena, x *tensor.Tensor, batch int) *tensor.Tensor {
	sh := x.Shape
	per := sh.C * sh.H * sh.W
	var out *tensor.Tensor
	for lo := 0; lo < sh.N; lo += batch {
		n := min(batch, sh.N-lo)
		chunk := tensor.FromSlice(x.Data[lo*per:(lo+n)*per], n, sh.C, sh.H, sh.W)
		y := net.Forward(&nn.ActRef{Kind: compress.KindConv, T: a.Wrap(chunk)}, false).T
		if out == nil {
			out = tensor.New(sh.N, y.Shape.C, y.Shape.H, y.Shape.W)
		}
		copy(out.Data[lo*len(y.Data)/n:], y.Data)
		y.Release()
	}
	return out
}

// loop is the epoch driver every trainer shares.
type loop struct {
	cfg Config
	// step runs one training step, optimizer update included.
	step func(epoch, b int) (stepResult, error)
	// validate scores the held-out batch, returning the raw output for
	// the NaN guard.
	validate func() (score float64, out *tensor.Tensor)
	// epochEnd, when set, sees every epoch the report records, as soon
	// as it is recorded.
	epochEnd func(EpochStats)
}

// finish is every trainer's tail: it runs the loop into rep, then stamps
// net's weights digest and the step arenas' high-water and snapshots the
// trainer's counters.
func (l *loop) finish(rep Report, net nn.Layer, counters *transport.Counters, arenas ...*tensor.Arena) (Report, transport.Snapshot, error) {
	err := l.run(&rep)
	rep.WeightsDigest = weightsDigest(net)
	for _, a := range arenas {
		rep.ArenaHighWater = max(rep.ArenaHighWater, a.HighWater())
	}
	return rep, counters.Snapshot(), err
}

// run trains cfg.Epochs epochs into rep. A step error ends the run with
// the epochs completed so far; a non-finite step loss sets Diverged
// without recording the epoch, a NaN validation output records it first.
func (l *loop) run(rep *Report) error {
	var foot map[compress.Kind]offload.Bytes
	for epoch := 0; epoch < l.cfg.Epochs; epoch++ {
		var sum stepResult
		for b := 0; b < l.cfg.BatchesPerEpoch; b++ {
			res, err := l.step(epoch, b)
			if err != nil {
				return err
			}
			if nonFinite(res.loss) {
				rep.Diverged = true
				return nil
			}
			sum.add(res)
			foot = res.foot
		}
		stats := EpochStats{Epoch: epoch, Loss: sum.loss / float64(l.cfg.BatchesPerEpoch)}
		if sum.sizes.Comp > 0 {
			stats.CompressionRatio = float64(sum.sizes.Orig) / float64(sum.sizes.Comp)
		}
		if sum.errN > 0 {
			stats.ActL2Error = sum.errSum / float64(sum.errN)
		}
		var out *tensor.Tensor
		stats.Score, out = l.validate()
		rep.Epochs = append(rep.Epochs, stats)
		if l.epochEnd != nil {
			l.epochEnd(stats)
		}
		if nn.NaNGuard(out) {
			rep.Diverged = true
			return nil
		}
		if stats.Score > rep.BestScore {
			rep.BestScore = stats.Score
		}
		rep.FinalRatio = stats.CompressionRatio
	}
	rep.Footprint = sortedFootprint(foot)
	return nil
}
