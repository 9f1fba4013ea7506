package train

// One training step, one epoch loop. Every trainer in this package is
// the same two pieces with different policies plugged in:
//
//   - pass.run is the step body: forward → loss → activation policy →
//     backward. The activation policy is what happens to the saved
//     activations between the two passes — nothing, a functional
//     round-trip through a compress.Method (the paper's simulation), or
//     a real offload through an offload.Engine.
//   - loop.run is the epoch driver around it: LR decay → batches →
//     divergence check → epoch hook → stats → validation → NaN guard.
//
// The gradient policy is the loop's step function: localStep hands the
// pass's gradients to this worker's optimizer, allReduce.step (see
// dataparallel.go) exchanges them between replicas first.

import (
	"fmt"
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
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
	loss       float64
	orig, comp int     // saved-activation bytes before and after the policy
	errSum     float64 // recovered-activation L2 error (round-trip, if measured)
	errN       int
	foot       map[compress.Kind]*FootprintEntry
}

// pass is the step body over one network. At most one of method and eng
// is set; neither is activation policy none (the saved activations reach
// backward untouched).
type pass struct {
	net     nn.Layer
	method  compress.Method // round-trip policy
	measure bool            // with method: record the recovered-activation error
	eng     *offload.Engine // offload policy
	freq    bool            // with eng: restore plan-covered activations as coefficient planes
	// arena serves the step's outputs and gradients, and validation's; it
	// lives as long as the trainer call, so every step reuses the last
	// one's buffers (nil: the heap).
	arena *tensor.Arena
}

// maxRecompute caps whole-step forward replays per batch under
// PolicyRecompute; beyond it the step fails.
const maxRecompute = 16

// restoreAbort carries a restore failure out of the backward pass; the
// hook has no error return, so the step unwinds via panic/recover.
type restoreAbort struct{ err error }

// run differentiates one batch. Backward runs under one merged hook set:
// OnNeed belongs to the activation policy (async offload restores on
// demand), OnGrad to the gradient policy (the caller's, nil for local).
// Every tensor the step drew from the arena goes back to it when the step
// is over, the offload engine's last commit and restore included.
func (p *pass) run(x *tensor.Tensor, lossOf lossFunc, epoch int, onGrad func(*nn.Param)) (stepResult, error) {
	var res stepResult
	defer p.arena.Reset()
	x = p.arena.Wrap(x) // the batch itself is not the arena's: a recompute replays from it
	hooks := &nn.Hooks{OnGrad: onGrad}
	defer nn.SetHooks(p.net, nil)
	finish := func(err error) error { return err }
	if p.eng != nil {
		finish = p.beginOffload(x, onGrad)
	}

	out := p.net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	loss, grad := lossOf(out.T)

	switch {
	case p.eng != nil:
		var err error
		if res.orig, res.comp, err = p.endForward(hooks); err != nil {
			return res, finish(err)
		}
	case p.method != nil:
		res = compressRefs(p.net.SavedRefs(), p.method, epoch, p.measure)
	}
	res.loss = loss

	nn.SetHooks(p.net, hooks)
	return res, finish(backward(p.net, grad))
}

// backward runs the backward pass, converting a restoreAbort panic from
// the OnNeed hook back into an error.
func backward(net nn.Layer, grad *tensor.Tensor) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ra, ok := r.(restoreAbort)
			if !ok {
				panic(r)
			}
			err = ra.err
		}
	}()
	net.Backward(grad)
	return nil
}

// beginOffload opens the engine's step before the forward pass: save
// hooks hand each activation to the engine the moment forward is done
// with it — to the encode pool in async mode, through the synchronous
// commit otherwise — so both modes submit the same sequence and hold the
// same tail. Under PolicyRecompute it arms the whole-step
// rebuild, which keeps the gradient policy's onGrad attached. The
// returned func ends the step — drains the restore side, or aborts it
// on err — and tears the step's store state down.
func (p *pass) beginOffload(x *tensor.Tensor, onGrad func(*nn.Param)) func(error) error {
	store := p.eng.Store()
	// Snapshot forward side effects (BN running stats, dropout RNG)
	// before the pass, so a corruption-triggered replay is bit-exact.
	pre := nn.CaptureNetState(p.net)
	p.eng.BeginStep()
	nn.SetHooks(p.net, &nn.Hooks{OnSave: p.eng.Offload})
	if store.Recovery.Policy == offload.PolicyRecompute {
		recomputes := 0
		store.Recovery.Recompute = func(*nn.ActRef) error {
			if recomputes >= maxRecompute {
				return fmt.Errorf("recompute budget (%d) exhausted", maxRecompute)
			}
			recomputes++
			// Rewind side effects and replay the forward pass from the
			// batch input; the replay re-applies them identically, so
			// the network state after the replay matches post-forward.
			// The activation hooks stay detached: the rebuilt step
			// offloads and restores synchronously (the engine has
			// already stopped its prefetcher before escalating here).
			nn.SetHooks(p.net, &nn.Hooks{OnGrad: onGrad})
			nn.RestoreNetState(p.net, pre)
			p.net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
			// Discard the stale step and re-offload the fresh refs —
			// through the same channel, so a new fault can strike (and
			// recover) again.
			store.Reset()
			_, _, err := store.OffloadAll(p.net.SavedRefs())
			return err
		}
	}
	return func(err error) error {
		if err != nil {
			p.eng.Abort()
		} else {
			err = p.eng.EndStep()
		}
		store.Recovery.Recompute = nil
		if p.freq {
			store.CoefPlan = nil
			nn.ReleaseCoefficients(p.net.SavedRefs())
		}
		return err
	}
}

// endForward closes the offload side of the step and readies the restore
// side: sweep whatever the streaming hooks had to hold back (the
// frontier-adjacent refs), barrier until every frame has been
// committed to the channel, then restore everything (sync, the
// degenerate case) or start the reverse-order prefetcher and put the
// on-demand restore into hooks (async).
func (p *pass) endForward(hooks *nn.Hooks) (orig, comp int, err error) {
	if p.freq {
		// The coefficient plan is computed once per step from the refs
		// this forward produced; refs a recompute rebuild creates later
		// are absent from it and safely restore spatially.
		plan := nn.CoefficientPlan(p.net)
		p.eng.Store().CoefPlan = func(ref *nn.ActRef) bool { return plan[ref] }
	}
	if orig, comp, err = p.eng.EndForward(p.net.SavedRefs()); err != nil {
		return orig, comp, err
	}
	if p.eng.Async() {
		hooks.OnNeed = func(ref *nn.ActRef) {
			if rerr := p.eng.Restore(ref); rerr != nil {
				panic(restoreAbort{rerr})
			}
		}
	}
	return orig, comp, p.eng.PrepareBackward()
}

// localStep is gradient policy local: one pass, then this worker's own
// optimizer. A non-finite loss leaves the weights alone; the loop flags
// the divergence.
func localStep(p *pass, opt *nn.SGD, batch func() (*tensor.Tensor, lossFunc)) func(epoch, b int) (stepResult, error) {
	params := p.net.Params()
	return func(epoch, _ int) (stepResult, error) {
		x, lossOf := batch()
		res, err := p.run(x, lossOf, epoch, nil)
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
	// epochEnd, when set, runs after an epoch's batches, before validation.
	epochEnd func(epoch int)
	// validate scores the held-out batch, returning the raw output for
	// the NaN guard.
	validate func() (score float64, out *tensor.Tensor)
	// verbose, when set, reports each completed epoch.
	verbose func(EpochStats)
}

// run trains cfg.Epochs epochs into rep. A step error ends the run with
// the epochs completed so far; a non-finite step loss sets Diverged
// without recording the epoch, a NaN validation output records it first.
func (l *loop) run(rep *Report) error {
	var foot map[compress.Kind]*FootprintEntry
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
			sum.loss += res.loss
			sum.orig += res.orig
			sum.comp += res.comp
			sum.errSum += res.errSum
			sum.errN += res.errN
			foot = res.foot
		}
		if l.epochEnd != nil {
			l.epochEnd(epoch)
		}
		stats := EpochStats{Epoch: epoch, Loss: sum.loss / float64(l.cfg.BatchesPerEpoch)}
		if sum.comp > 0 {
			stats.CompressionRatio = float64(sum.orig) / float64(sum.comp)
		}
		if sum.errN > 0 {
			stats.ActL2Error = sum.errSum / float64(sum.errN)
		}
		var out *tensor.Tensor
		stats.Score, out = l.validate()
		rep.Epochs = append(rep.Epochs, stats)
		if nn.NaNGuard(out) {
			rep.Diverged = true
			return nil
		}
		if stats.Score > rep.BestScore {
			rep.BestScore = stats.Score
		}
		rep.FinalRatio = stats.CompressionRatio
		if l.verbose != nil {
			l.verbose(stats)
		}
	}
	rep.Footprint = sortedFootprint(foot)
	return nil
}
