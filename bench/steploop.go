package main

// The benchmark-owned training step loop of the traced pass: the shape of
// the product's offloadedStep (and of cmd/offloadbench's runMode), with a
// span around every call into a layer. With a nil recorder the same loop
// is the untraced control the tracing overhead is measured against.

import (
	"fmt"
	"time"

	"jpegact"
	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
)

// loopEnv says which product configuration the loop reproduces.
type loopEnv struct {
	c       config
	offload bool // false: train_plain
	async   bool
	channel *simChannel         // train_offload_dma (nil = clean in-process channel)
	dial    jpegact.StoreDialer // train_offload_net
	lat     *latencies          // receives the wire client's per-op latencies
	srv     *storeServer        // sampled for its resident bytes after each forward
	peakKB  *float64            // high-water mark of those samples
}

// loopRound is what one bench-loop round (model build, validation batch,
// Batches steps, validation) measured.
type loopRound struct {
	StepMS  []float64
	TotalMS float64
	Loss    float64 // epoch loss, comparable with the facade's
	Stats   offload.Stats
	Engine  offload.EngineStats
	Err     error
}

// round runs one round, identical in work to one facade call.
func (e loopEnv) round(rec *recorder, round int) (lr loopRound) {
	c := e.c
	rec.at(round, -1)
	t0 := time.Now()

	id := rec.begin("train.build")
	m, ds := c.buildModel()
	opt := nn.NewSGD(learnRate, momentum, weightDecay)
	var store *offload.Store
	var eng *offload.Engine
	if e.offload {
		store = offload.NewStore(quant.OptL())
		if e.channel != nil {
			store.Channel = e.channel
		}
		if e.dial != nil {
			client := transport.NewNetClient(e.dial, store.Counters())
			if e.lat != nil {
				client.Latency = e.lat.observe
			}
			store.Transport = client
		}
		// The product's engineConfig: prefetch 4 in async mode, window 1.
		eng = offload.NewEngine(store, offload.EngineConfig{Async: e.async, Prefetch: 4})
		defer func() {
			lr.Stats = store.Stats()
			lr.Engine = eng.Stats()
			eng.Close()
			store.Close()
		}()
	}
	rec.end(id)

	id = rec.begin("data.val_batch")
	valX, valY := ds.Batch(c.Sz.Batch * 8)
	rec.end(id)

	for s := 0; s < c.Sz.Batches; s++ {
		rec.at(round, s)
		ts := time.Now()
		step := rec.begin("step")
		loss, err := e.step(rec, m, ds, opt, eng)
		rec.end(step)
		lr.StepMS = append(lr.StepMS, float64(time.Since(ts).Nanoseconds())/1e6)
		if err != nil {
			lr.Err = fmt.Errorf("round %d step %d: %w", round, s, err)
			return lr
		}
		lr.Loss += loss
	}
	lr.Loss /= float64(c.Sz.Batches)

	rec.at(round, -1)
	id = rec.begin("train.validation")
	valOut := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: valX}, false)
	nn.Accuracy(valOut.T, valY)
	rec.end(id)
	lr.TotalMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	return lr
}

// restoreFailed carries a restore error out of the OnNeed hook, which
// has no error return.
type restoreFailed struct{ err error }

func (e loopEnv) step(rec *recorder, m *models.Model, ds *data.Classification, opt *nn.SGD, eng *offload.Engine) (loss float64, err error) {
	c := e.c
	id := rec.begin("data.batch")
	x, labels := ds.Batch(c.Sz.Batch)
	rec.end(id)

	if eng == nil {
		id = rec.begin("nn.forward")
		out := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
		rec.end(id)
		id = rec.begin("nn.loss")
		loss, grad := nn.SoftmaxCrossEntropy(out.T, labels)
		rec.end(id)
		id = rec.begin("nn.backward")
		m.Net.Backward(grad)
		rec.end(id)
		id = rec.begin("nn.optimizer")
		opt.Step(m.Net.Params())
		rec.end(id)
		return loss, nil
	}

	id = rec.begin("train.scaffold")
	nn.CaptureNetState(m.Net) // the product snapshots BN/dropout state for a bit-exact replay
	eng.BeginStep()
	if eng.Async() {
		nn.SetHooks(m.Net, &nn.Hooks{OnSave: func(r *nn.ActRef) {
			h := rec.begin("offload.offload_call")
			eng.Offload(r)
			rec.end(h)
		}})
		defer nn.SetHooks(m.Net, nil)
	}
	rec.end(id)

	id = rec.begin("nn.forward")
	out := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	rec.end(id)
	id = rec.begin("nn.loss")
	loss, grad := nn.SoftmaxCrossEntropy(out.T, labels)
	rec.end(id)

	id = rec.begin("offload.end_forward")
	_, _, err = eng.EndForward(m.Net.SavedRefs())
	rec.end(id)
	if err != nil {
		eng.Abort()
		return loss, err
	}
	if e.srv != nil {
		if kb := float64(e.srv.Srv.HostBytes()) / 1e3; kb > *e.peakKB {
			*e.peakKB = kb
		}
	}
	id = rec.begin("offload.prepare_backward")
	err = eng.PrepareBackward()
	rec.end(id)
	if err != nil {
		eng.Abort()
		return loss, err
	}

	if eng.Async() {
		nn.SetHooks(m.Net, &nn.Hooks{OnNeed: func(r *nn.ActRef) {
			h := rec.begin("offload.restore")
			rerr := eng.Restore(r)
			rec.end(h)
			if rerr != nil {
				panic(restoreFailed{rerr})
			}
		}})
	}
	id = rec.begin("nn.backward")
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				rf, ok := r.(restoreFailed)
				if !ok {
					panic(r)
				}
				err = rf.err
			}
		}()
		m.Net.Backward(grad)
		return nil
	}()
	rec.end(id)
	if err != nil {
		eng.Abort()
		return loss, err
	}
	id = rec.begin("offload.end_step")
	err = eng.EndStep()
	rec.end(id)
	if err != nil {
		return loss, err
	}
	id = rec.begin("nn.optimizer")
	opt.Step(m.Net.Params())
	rec.end(id)
	return loss, nil
}
