package main

// The traced pass: a shorter run per workload that records spans around
// every call into a layer and probes each layer directly, and reduces
// them to the per-layer metrics. End-to-end metrics never come from
// here; the difference between a traced and an untraced step is the
// tracing overhead.

import (
	"fmt"
	"runtime"
	"time"

	"jpegact"
	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/transport"
)

// sideLegs is how many cycles also run the comparison legs (untraced
// control, sync engine, facade round); later cycles only add traced steps.
const sideLegs = 4

// traceCtx is what a workload's traced pass works with.
type traceCtx struct {
	config
	rec *recorder
	// seconds > 0 (the driver's form) replaces the Sz.TraceCycles cycles by
	// as many as fit in that time, at least one.
	seconds float64
	// bound holds the machine probes, the denominators of the
	// *_share_of_* metrics.
	bound map[string]float64
	// p0 and p1 bracket the cycles (and not the probes that follow them)
	// for the process statistics.
	p0, p1 procSample
}

// cycles runs the workload's cycle as often as the budget allows, or
// until it reports false, and returns how many completed.
func (tc *traceCtx) cycles(cycle func(i int) bool) int {
	runtime.GC()
	tc.p0 = readProc()
	start := time.Now()
	n := 0
	more := func() bool {
		if tc.seconds > 0 {
			return n == 0 || time.Since(start).Seconds() < tc.seconds
		}
		return n < tc.Sz.TraceCycles
	}
	for more() && cycle(n) {
		n++
	}
	tc.p1 = readProc()
	return n
}

// layerValues is a traced pass's result: per-layer metric values, plus
// how many operations (steps, tensor round trips, store ops) the pass
// performed, for the per-op process statistics.
type layerValues struct {
	vals  map[string]float64
	ops   float64
	notes []string // failed checks
}

func (lv *layerValues) merge(m map[string]float64) {
	for k, v := range m {
		lv.vals[k] = v
	}
}

// ledgerSummary says how well the per-step cost ledger closed.
type ledgerSummary struct {
	Root  string `json:"root"`
	Steps int    `json:"steps"`
	// Attributed is the median share of a step's wall time that the named
	// layer spans under it account for; the rest is loop glue.
	Attributed float64 `json:"attributed_share"`
	// WorstGap is the largest |Σ self − step| / step over the steps: zero
	// when the spans nest properly.
	WorstGap float64 `json:"worst_gap_share"`
}

func summarizeLedger(spans []span, root string) *ledgerSummary {
	rows := ledger(spans, root)
	s := &ledgerSummary{Root: root, Steps: len(rows)}
	var attr []float64
	for _, r := range rows {
		attr = append(attr, r.attributed(root))
		if r.DurNS > 0 {
			gap := float64(r.total()-r.DurNS) / float64(r.DurNS)
			if gap < 0 {
				gap = -gap
			}
			if gap > s.WorstGap {
				s.WorstGap = gap
			}
		}
	}
	s.Attributed = median(attr)
	return s
}

// ledgerTolerance is how much of a step may stay unattributed, and how
// far the self times may miss the step span.
const ledgerTolerance = 0.05

// ledgerRoots names the span each workload's ledger is kept per.
var ledgerRoots = map[string]string{
	wlCodecStream: "codec.pass", wlTrainPlain: "step", wlOffloadDMA: "step", wlOffloadNet: "step",
}

// runTraced runs one workload's traced pass and completes its per-layer
// table: machine bounds, the workload's own layers, process statistics,
// and an explicit 0 for every layer the workload does not enter.
func runTraced(w workload, c config, seconds float64, res *workloadResult) *recorder {
	rec := newRecorder(w.Name)
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, "traced: "+fmt.Sprintf(format, args...))
		res.Correct = false
	}
	bound, err := probeBounds(c.Dir, c.Sz.Probe)
	if err != nil {
		fail("bound probes: %v", err)
		bound = map[string]float64{}
	}

	goroutines := runtime.NumGoroutine()
	tc := &traceCtx{config: c, rec: rec, seconds: seconds, bound: bound}
	lv, err := w.traced(tc)
	p0, p1 := tc.p0, tc.p1
	if err != nil {
		fail("%v", err)
	}
	for _, n := range lv.notes {
		fail("%s", n)
	}
	res.Attempted += int(lv.ops)
	res.Failed += len(lv.notes)
	lv.merge(bound)
	if lv.ops > 0 {
		lv.vals["proc.allocs_per_op"] = float64(p1.mallocs-p0.mallocs) / lv.ops
		lv.vals["proc.alloc_kb_per_op"] = float64(p1.allocB-p0.allocB) / 1e3 / lv.ops
	}
	lv.vals["proc.gc_cycles"] = float64(p1.gcCycles - p0.gcCycles)
	lv.vals["proc.gc_pause_ms"] = float64(p1.gcPauseNS-p0.gcPauseNS) / 1e6
	if wall := p1.wall.Sub(p0.wall); wall > 0 {
		lv.vals["proc.cpu_util"] = float64(p1.cpu-p0.cpu) / float64(wall) / float64(runtime.GOMAXPROCS(0))
	}
	lv.vals["proc.goroutines_end"] = float64(settleGoroutines(goroutines))

	if root, ok := ledgerRoots[w.Name]; ok {
		res.Ledger = summarizeLedger(rec.snapshot(), root)
		if res.Ledger.Steps == 0 {
			fail("no %q span was recorded", root)
		} else if 1-res.Ledger.Attributed > ledgerTolerance || res.Ledger.WorstGap > ledgerTolerance {
			fail("ledger does not close: %.1f%% of a %s attributed, worst gap %.1f%%",
				100*res.Ledger.Attributed, root, 100*res.Ledger.WorstGap)
		}
	}

	validTimes := !w.NeedsTwoProcs || runtime.GOMAXPROCS(0) >= 2
	res.Layers = map[string]metricValue{}
	for _, m := range perLayerSpec {
		v, measured := lv.vals[m.Name]
		if !m.appliesTo(w.Name) {
			v, measured = 0, false
		}
		n := 0
		if measured {
			n = 1
		}
		res.Layers[m.Name] = metricValue{Value: v, Unit: m.Unit, N: n, Valid: validTimes || m.clockFree()}
	}
	return rec
}

// wireAccount adds up what a server-backed traced leg moved.
type wireAccount struct {
	conn       connStats
	lat        latencies
	puts, gets uint64 // as the server counted them, traced legs only
	peakKB     float64
}

// around runs leg and books the server-side counts it caused.
func (a *wireAccount) around(srv *storeServer, leg func()) {
	s0 := srv.Srv.Snapshot()
	leg()
	s1 := srv.Srv.Snapshot()
	a.puts += s1.Offloaded - s0.Offloaded
	a.gets += s1.Restored - s0.Restored
}

// metrics reduces the account to the transport/netstore rows, per unit
// (a training step, or one offload life cycle on store_mixed).
func (a *wireAccount) metrics(srv *storeServer, units, rounds, rttUS float64) map[string]float64 {
	puts := a.lat.of(transport.OpPut)
	gets := a.lat.of(transport.OpGet, transport.OpGetCoef)
	out := map[string]float64{
		"transport.conn_write_calls_per_step": float64(a.conn.writeCalls.Load()) / units,
		"transport.conn_write_kb_per_step":    float64(a.conn.writeBytes.Load()) / 1e3 / units,
		"transport.conn_read_kb_per_step":     float64(a.conn.readBytes.Load()) / 1e3 / units,
		"transport.conn_write_ms":             float64(a.conn.writeNS.Load()) / 1e6 / units,
		"transport.put_us_p50":                median(puts),
		"transport.put_us_p99":                percentile(puts, 0.99),
		"transport.get_us_p50":                median(gets),
		"transport.get_us_p99":                percentile(gets, 0.99),
		"transport.delete_us_p50":             median(a.lat.of(transport.OpDelete)),
		"netstore.puts":                       float64(a.puts) / units,
		"netstore.gets":                       float64(a.gets) / units,
		"netstore.host_kb_peak":               a.peakKB,
		"netstore.entries_end":                float64(srv.Srv.Entries()),
		"netstore.conns":                      float64(a.conn.dials.Load()) / rounds,
	}
	if p := median(puts); p > 0 {
		// 1 would mean a PUT costs no more than a bare round trip.
		out["transport.put_share_of_rtt"] = rttUS / p
	}
	return out
}

// kindRatios reads the measured per-kind ratios back out of the codec
// probe, for the performance model.
func kindRatios(vals map[string]float64) map[compress.Kind]float64 {
	out := map[compress.Kind]float64{}
	for _, k := range []compress.Kind{compress.KindConv, compress.KindReLUToConv, compress.KindReLUToOther, compress.KindPoolDropout} {
		out[k] = vals["codec.ratio."+kindSlug(k)]
	}
	return out
}

// --- train_plain, train_offload_dma, train_offload_net -------------------------

// tracedStepLoop builds the traced pass of a workload that has a
// benchmark-owned step loop. One cycle is: a traced round; then, for the
// first few cycles, an untraced round of the same loop (the tracing
// control), a sync-engine round (what overlap buys) and a facade round
// (what the product's scaffolding costs over the bare loop).
func tracedStepLoop(name string) func(*traceCtx) (*layerValues, error) {
	return func(tc *traceCtx) (*layerValues, error) {
		c, rec := tc.config, tc.rec
		lv := &layerValues{vals: map[string]float64{}}
		out := lv.vals

		env := loopEnv{c: c, offload: name != wlTrainPlain, async: true}
		tracedEnv := env
		var chTraced *simChannel
		var wire wireAccount
		var srv *storeServer
		facade := func() (float64, float64, string) { return plainRound(c) }
		switch name {
		case wlOffloadDMA:
			env.channel = newSimChannel(c.Sz, nil)
			chTraced = newSimChannel(c.Sz, rec)
			tracedEnv.channel = chTraced
			facade = func() (float64, float64, string) {
				return offloadRound(c, jpegact.OffloadTrainOptions{Async: true, Channel: env.channel})
			}
		case wlOffloadNet:
			var err error
			if srv, err = startStore(c.Dir); err != nil {
				return lv, err
			}
			defer func() { lv.notes = append(lv.notes, storeChecks(srv)...) }()
			dial, err := jpegact.DialActivationStore(srv.Addr)
			if err != nil {
				return lv, err
			}
			env.dial = dial
			tracedEnv.dial = traceDialer(dial, &wire.conn, rec)
			tracedEnv.lat, tracedEnv.srv, tracedEnv.peakKB = &wire.lat, srv, &wire.peakKB
			facade = func() (float64, float64, string) {
				return offloadRound(c, jpegact.OffloadTrainOptions{Async: true, StoreAddr: srv.Addr})
			}
		}
		syncEnv := env
		syncEnv.async = false

		var tracedStep, plainStep, syncStep, loopRoundMS, facadeMS []float64
		var stats transport.Snapshot
		var hits, waits, demand uint64
		maxInflight, rounds := 0, 0
		var loopLoss float64
		ok := func(lr loopRound, what string) bool {
			if lr.Err != nil {
				lv.notes = append(lv.notes, what+": "+lr.Err.Error())
				return false
			}
			if bad := cleanStats(lr.Stats); bad != "" {
				lv.notes = append(lv.notes, what+": "+bad)
			}
			return true
		}
		rounds = tc.cycles(func(i int) bool {
			var lr loopRound
			if srv != nil {
				wire.around(srv, func() { lr = tracedEnv.round(rec, i) })
			} else {
				lr = tracedEnv.round(rec, i)
			}
			if !ok(lr, "traced round") {
				return false
			}
			loopLoss = lr.Loss
			tracedStep = append(tracedStep, lr.StepMS...)
			stats.Offloaded += lr.Stats.Offloaded
			stats.BytesOffloaded += lr.Stats.BytesOffloaded
			stats.Retried += lr.Stats.Retried
			stats.Recomputed += lr.Stats.Recomputed
			stats.Degraded += lr.Stats.Degraded
			stats.Reconnects += lr.Stats.Reconnects
			stats.Hedged += lr.Stats.Hedged
			hits += lr.Engine.PrefetchHits
			waits += lr.Engine.PrefetchWaits
			demand += lr.Engine.DemandFetches
			maxInflight = max(maxInflight, lr.Engine.MaxInFlight)
			if i >= sideLegs {
				return true
			}
			if lr = env.round(nil, i); ok(lr, "untraced round") {
				plainStep = append(plainStep, lr.StepMS...)
				loopRoundMS = append(loopRoundMS, lr.TotalMS)
			}
			if env.offload {
				if lr = syncEnv.round(nil, i); ok(lr, "sync round") {
					syncStep = append(syncStep, lr.StepMS...)
					if lr.Loss != loopLoss {
						lv.notes = append(lv.notes, fmt.Sprintf("sync loop loss %v differs from the async loop's %v", lr.Loss, loopLoss))
					}
				}
			}
			t0 := time.Now()
			loss, _, bad := facade()
			facadeMS = append(facadeMS, float64(time.Since(t0).Nanoseconds())/1e6)
			if bad != "" {
				lv.notes = append(lv.notes, "facade round: "+bad)
			} else if loss != loopLoss {
				// The bench-owned loop must be the product's computation, or
				// its ledger describes some other program.
				lv.notes = append(lv.notes, fmt.Sprintf("bench loop loss %v differs from the facade's %v", loopLoss, loss))
			}
			return true
		})
		if len(tracedStep) == 0 {
			return lv, fmt.Errorf("no traced step completed")
		}
		steps := float64(len(tracedStep))
		// Every leg ran inside the process-statistics window.
		lv.ops = steps + float64(len(plainStep)+len(syncStep)+c.Sz.Batches*len(facadeMS))

		spans := rec.snapshot()
		rows := ledger(spans, "step")
		med := func(name string) float64 { return median(perRow(rows, name)) }
		out["data.batch_ms"] = med("data.batch")
		out["nn.forward_ms"] = med("nn.forward")
		out["nn.loss_ms"] = med("nn.loss")
		out["nn.backward_ms"] = med("nn.backward")
		out["nn.optimizer_ms"] = med("nn.optimizer")
		out["train.step_ms_p50"] = median(tracedStep)
		out["train.step_ms_p90"] = percentile(tracedStep, 0.9)
		out["train.validation_ms"] = median(durationsMS(spans, "train.validation"))
		if len(plainStep) > 0 {
			out["trace_overhead_share"] = median(tracedStep)/median(plainStep) - 1
		}
		if len(loopRoundMS) > 0 && len(facadeMS) > 0 {
			out["train.product_vs_loop_ratio"] = median(facadeMS) / median(loopRoundMS)
		}
		lv.merge(probeGemm(c, tc.bound["bound.gemm_peak_gflops"]))
		if !env.offload {
			return lv, nil
		}

		out["offload.offload_call_us"] = med("offload.offload_call") * 1e3
		out["offload.end_forward_wait_ms"] = med("offload.end_forward")
		out["offload.prepare_backward_ms"] = med("offload.prepare_backward")
		out["offload.restore_wait_ms"] = med("offload.restore")
		out["offload.end_step_ms"] = med("offload.end_step")
		// Exposed: everything the offload machinery costs on the step's own
		// goroutine. Encode runs on the other core and transfers on the
		// channel track; only what the step waits for counts.
		var exposed, exposedShare []float64
		for _, r := range rows {
			ns := r.SelfNS["offload.offload_call"] + r.SelfNS["offload.end_forward"] + r.SelfNS["offload.prepare_backward"] +
				r.SelfNS["offload.restore"] + r.SelfNS["offload.end_step"]
			exposed = append(exposed, float64(ns)/1e6)
			exposedShare = append(exposedShare, float64(ns)/float64(r.DurNS))
		}
		out["offload.exposed_ms"] = median(exposed)
		out["offload.exposed_share"] = median(exposedShare)
		if hits+waits > 0 {
			out["offload.prefetch_hit_ratio"] = float64(hits) / float64(hits+waits)
		}
		out["offload.demand_fetches"] = float64(demand) / steps
		out["offload.max_inflight_kb"] = float64(maxInflight) / 1e3
		out["offload.offloaded_per_step"] = float64(stats.Offloaded) / steps
		out["offload.kb_offloaded_per_step"] = float64(stats.BytesOffloaded) / 1e3 / steps
		out["offload.step_ms_async"] = median(plainStep)
		out["offload.step_ms_sync"] = median(syncStep)
		if a := median(plainStep); a > 0 {
			out["offload.overlap_gain"] = median(syncStep) / a
		}
		out["offload.retried"] = float64(stats.Retried)
		out["offload.recomputed"] = float64(stats.Recomputed)
		out["offload.degraded"] = float64(stats.Degraded)

		if chTraced != nil {
			out["transport.channel_send_ms"] = float64(chTraced.sendNS.Load()) / 1e6 / steps
			out["transport.channel_recv_ms"] = float64(chTraced.recvNS.Load()) / 1e6 / steps
			out["transport.channel_transfers_per_step"] = float64(chTraced.transfers.Load()) / steps
			out["transport.channel_busy_share"] = float64(chTraced.busyNS.Load()) / 1e6 / sum(tracedStep)
		}

		// The layers under the engine, probed on this model's activations.
		probes, frames, err := probeCodecStack(tc, captureActivations(c))
		if err != nil {
			return lv, err
		}
		lv.merge(probes)
		if srv != nil {
			lv.merge(wire.metrics(srv, steps, float64(rounds), tc.bound["bound.unix_rtt_us"]))
			out["transport.reconnects"] = float64(stats.Reconnects)
			out["transport.hedged"] = float64(stats.Hedged)
			wp, err := probeWire(srv, frame.EncodeFrame(frames[len(frames)/2]))
			if err != nil {
				return lv, err
			}
			lv.merge(wp)
		}
		lv.merge(probeGpusim(kindRatios(probes), gradBytes(c)))
		return lv, nil
	}
}

// gradBytes is the float32 footprint of the model's weight gradient.
func gradBytes(c config) float64 {
	m, _ := c.buildModel()
	return 4 * float64(nn.GradSize(m.Net))
}

// pollHostPeak samples the server's resident bytes into *peakKB until the
// returned stop function is called — for workloads that give the bench no
// point inside a step to read them at.
func pollHostPeak(srv *storeServer, peakKB *float64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if kb := float64(srv.Srv.HostBytes()) / 1e3; kb > *peakKB {
					*peakKB = kb
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// --- codec_stream ------------------------------------------------------------------

// tracedCodecStream repeats the workload's pass with a span around each
// of the four layer calls per tensor; the ledger is kept per pass.
func tracedCodecStream(tc *traceCtx) (*layerValues, error) {
	c, rec := tc.config, tc.rec
	lv := &layerValues{vals: map[string]float64{}}
	r, err := setupCodecStream(c)
	if err != nil {
		return lv, err
	}
	cr := r.(*codecRunner)
	passes := 0
	tc.cycles(func(i int) bool {
		for p := 0; p < cr.passes; p++ {
			rec.at(i, p)
			id := rec.begin("codec.pass")
			pass := runStreamPass(cr.pipe, cr.ts, rec)
			rec.end(id)
			passes++
			lv.notes = append(lv.notes, pass.Notes...)
			if pass.SHA != cr.refSHA {
				lv.notes = append(lv.notes, "traced pass encoded other bytes than the warm-up pass")
			}
		}
		return true
	})
	lv.ops = float64(passes * len(cr.ts))

	probes, _, err := probeCodecStack(tc, cr.ts)
	if err != nil {
		return lv, err
	}
	lv.merge(probes)
	return lv, nil
}

// --- train_dp2_net -------------------------------------------------------------------

// tracedDP2Net has no step loop of its own — the data-parallel trainer is
// reachable only as a whole facade call — so its cycle compares facade
// rounds: the product configuration over a traced dialer, the same
// untraced, one replica, and the serial (unoverlapped) exchange.
func tracedDP2Net(tc *traceCtx) (*layerValues, error) {
	c, rec := tc.config, tc.rec
	lv := &layerValues{vals: map[string]float64{}}
	out := lv.vals
	srv, err := startStore(c.Dir)
	if err != nil {
		return lv, err
	}
	defer func() { lv.notes = append(lv.notes, storeChecks(srv)...) }()
	dial, err := jpegact.DialActivationStore(srv.Addr)
	if err != nil {
		return lv, err
	}
	var wire wireAccount
	traced := jpegact.DataParallelOptions{
		Replicas: 2, StoreDial: traceDialer(dial, &wire.conn, rec),
		ClientHook: func(cl *transport.NetClient) { cl.Latency = wire.lat.observe },
	}
	images := float64(c.Sz.DPSteps * c.Sz.Microbatches * c.Sz.Batch)
	timed := func(dp jpegact.DataParallelOptions, what string) (float64, jpegact.TransportSnapshot) {
		t0 := time.Now()
		_, snap, bad := dpRound(c, dp)
		if bad != "" {
			lv.notes = append(lv.notes, what+": "+bad)
		}
		return time.Since(t0).Seconds(), snap
	}

	stopPoll := pollHostPeak(srv, &wire.peakKB)

	var tracedS, plainS, k1S, serialS []float64
	var grad jpegact.TransportSnapshot
	rounds := tc.cycles(func(i int) bool {
		rec.at(i, -1)
		id := rec.begin("train.dp_round")
		wire.around(srv, func() {
			s, snap := timed(traced, "traced round")
			tracedS = append(tracedS, s)
			grad.GradPuts += snap.GradPuts
			grad.GradGets += snap.GradGets
			grad.BytesGrad += snap.BytesGrad
			grad.Reconnects += snap.Reconnects
			grad.Hedged += snap.Hedged
		})
		rec.end(id)
		if i >= sideLegs {
			return true
		}
		s, _ := timed(jpegact.DataParallelOptions{Replicas: 2, StoreDial: dial}, "untraced round")
		plainS = append(plainS, s)
		s, _ = timed(jpegact.DataParallelOptions{Replicas: 1, StoreDial: dial}, "K=1 round")
		k1S = append(k1S, s)
		s, _ = timed(jpegact.DataParallelOptions{Replicas: 2, StoreDial: dial, SerialExchange: true}, "serial round")
		serialS = append(serialS, s)
		return true
	})
	stopPoll()

	steps := float64(rounds * c.Sz.DPSteps)
	lv.ops = float64(c.Sz.DPSteps * (len(tracedS) + len(plainS) + len(k1S) + len(serialS)))
	out["train.step_ms_p50"] = median(tracedS) * 1e3 / float64(c.Sz.DPSteps)
	out["train.step_ms_p90"] = percentile(tracedS, 0.9) * 1e3 / float64(c.Sz.DPSteps)
	out["train.dp_grad_puts_per_step"] = float64(grad.GradPuts) / steps
	out["train.dp_grad_gets_per_step"] = float64(grad.GradGets) / steps
	out["train.dp_grad_kb_per_step"] = float64(grad.BytesGrad) / 1e3 / steps
	k2 := images / median(plainS)
	out["train.dp_k1_samples_per_s"] = images / median(k1S)
	out["train.dp_scaling_efficiency"] = k2 / (2 * out["train.dp_k1_samples_per_s"])
	out["train.dp_serial_samples_per_s"] = images / median(serialS)
	out["train.dp_overlap_gain"] = k2 / out["train.dp_serial_samples_per_s"]
	out["trace_overhead_share"] = median(tracedS)/median(plainS) - 1
	lv.merge(wire.metrics(srv, steps, float64(rounds), tc.bound["bound.unix_rtt_us"]))
	out["transport.reconnects"] = float64(grad.Reconnects)
	out["transport.hedged"] = float64(grad.Hedged)

	// One microbatch draw, timed directly: the trainer draws M of these
	// per step before its workers start.
	_, ds := c.buildModel()
	out["data.batch_ms"] = timeIt(c.Sz.Probe, func() { ds.Batch(c.Sz.Batch) }) * 1e3
	lv.merge(probeGemm(c, tc.bound["bound.gemm_peak_gflops"]))
	frames, gp, err := gradientFrames(c)
	if err != nil {
		return lv, err
	}
	lv.merge(gp)
	fp, err := probeFrame(frames, tc.bound["bound.crc32c_gb_per_s"], c.Sz.Probe)
	if err != nil {
		return lv, err
	}
	lv.merge(fp)
	wp, err := probeWire(srv, frame.EncodeFrame(frames[0]))
	if err != nil {
		return lv, err
	}
	lv.merge(wp)
	lv.merge(probeGpusim(nil, gradBytes(c)))
	return lv, nil
}

// --- store_mixed -----------------------------------------------------------------------

// tracedStoreMixed replays the workload's rounds over traced connections
// with the per-op latency hook on, each client's phases a span on its
// own track.
func tracedStoreMixed(tc *traceCtx) (*layerValues, error) {
	c, rec := tc.config, tc.rec
	lv := &layerValues{vals: map[string]float64{}}
	out := lv.vals
	r, err := setupStoreMixed(c)
	if err != nil {
		return lv, err
	}
	sr := r.(*storeRunner)
	defer func() { lv.notes = append(lv.notes, sr.finish()...) }()

	// Swap the plain clients for traced ones.
	var wire wireAccount
	dial, err := jpegact.DialActivationStore(sr.srv.Addr)
	if err != nil {
		return lv, err
	}
	for i, old := range sr.clients {
		old.Close()
		cl := jpegact.NewStoreClient(traceDialer(dial, &wire.conn, rec), sr.counters)
		cl.Window = storeWindow
		cl.Latency = wire.lat.observe
		sr.clients[i] = cl
	}

	stopPoll := pollHostPeak(sr.srv, &wire.peakKB)
	cycles := tc.cycles(func(i int) bool {
		rec.at(i, -1)
		// ~50 spans per life cycle: the first round is picture enough.
		rec.pause(i > 0)
		wire.around(sr.srv, func() {
			res := sr.play(sr.iters, rec)
			lv.notes = append(lv.notes, res.Notes...)
			lv.ops += res.Work
		})
		return true
	})
	stopPoll()
	lifeCycles := float64(cycles * sr.iters * len(sr.clients))
	lv.merge(wire.metrics(sr.srv, lifeCycles, float64(cycles), tc.bound["bound.unix_rtt_us"]))
	snap := sr.counters.Snapshot()
	out["transport.reconnects"] = float64(snap.Reconnects)
	out["transport.hedged"] = float64(snap.Hedged)

	fp, err := probeFrame(sr.decoded, tc.bound["bound.crc32c_gb_per_s"], c.Sz.Probe)
	if err != nil {
		return lv, err
	}
	lv.merge(fp)
	wp, err := probeWire(sr.srv, sr.frames[len(sr.frames)/2])
	if err != nil {
		return lv, err
	}
	lv.merge(wp)
	return lv, nil
}
