package main

// Direct-call probes of the traced pass: each times one layer's public
// functions on the workload's own data (the captured activations, the
// model's conv shapes), or measures a machine bound that a
// *_share_of_* metric is a fraction of.

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"jpegact/internal/coding"
	"jpegact/internal/compress"
	"jpegact/internal/frame"
	"jpegact/internal/gpusim"
	"jpegact/internal/nn"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
)

// timeIt calls f until d has passed (at least 5 times) and returns the
// median seconds per call.
func timeIt(d time.Duration, f func()) float64 {
	var ds []float64
	start := time.Now()
	for len(ds) < 5 || time.Since(start) < d {
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}

// --- bound: machine probes --------------------------------------------------

var sink float32

func probeBounds(dir string, d time.Duration) (map[string]float64, error) {
	out := map[string]float64{}

	src, dst := make([]byte, 8<<20), make([]byte, 8<<20) // beyond the L2
	out["bound.memcpy_gb_per_s"] = float64(len(src)) / timeIt(d, func() { copy(dst, src) }) / 1e9

	crcTable := crc32.MakeTable(crc32.Castagnoli)
	out["bound.crc32c_gb_per_s"] = float64(1<<20) / timeIt(d, func() { crc32.Update(0, crcTable, src[:1<<20]) }) / 1e9

	// Scalar multiply-add peak: eight independent float32 chains per P,
	// which is what a register-tiled pure-Go GEMM kernel could at best
	// sustain on this machine.
	const iters = 1 << 20
	procs := runtime.GOMAXPROCS(0)
	sums := make([]float32, procs) // one slot per goroutine; kept so the chains are not optimised away
	sec := timeIt(d, func() {
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				a0, a1, a2, a3, a4, a5, a6, a7 := float32(1), float32(2), float32(3), float32(4), float32(5), float32(6), float32(7), float32(8)
				x, y := float32(0.999), float32(0.001)
				for i := 0; i < iters; i++ {
					a0 = a0*x + y
					a1 = a1*x + y
					a2 = a2*x + y
					a3 = a3*x + y
					a4 = a4*x + y
					a5 = a5*x + y
					a6 = a6*x + y
					a7 = a7*x + y
				}
				sums[p] = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
			}(p)
		}
		wg.Wait()
	})
	for _, s := range sums {
		sink += s
	}
	out["bound.gemm_peak_gflops"] = float64(procs) * iters * 16 / sec / 1e9

	var over []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		time.Sleep(100 * time.Microsecond)
		over = append(over, float64(time.Since(t0).Nanoseconds())/1e3-100)
	}
	out["bound.sleep_overshoot_us"] = median(over)

	rtt, err := unixRTT(dir)
	if err != nil {
		return nil, err
	}
	out["bound.unix_rtt_us"] = rtt
	return out, nil
}

// unixRTT is the median round trip of a 16-byte request and an 8-byte
// reply (the wire protocol's header sizes) over a unix socket: the floor
// under any store operation.
func unixRTT(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("r%d.sock", os.Getpid()))
	ln, err := net.Listen("unix", path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, resp := make([]byte, 16), make([]byte, 8)
		for {
			if _, err := io.ReadFull(conn, req); err != nil {
				return
			}
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("unix", path)
	if err != nil {
		return 0, err
	}
	req, resp := make([]byte, 16), make([]byte, 8)
	var us []float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		if _, err = conn.Write(req); err == nil {
			_, err = io.ReadFull(conn, resp)
		}
		if err != nil {
			break
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	conn.Close()
	<-echoed
	return median(us), err
}

// --- nn: GEMM at the model's conv shapes -----------------------------------

type gemmShape struct{ m, k, n int }

// convShapes lists (OutC, InC·k², Ho·Wo) of every convolution, read off
// the model after a forward pass has filled the saved input refs.
func convShapes(net nn.Layer) []gemmShape {
	var out []gemmShape
	nn.Walk(net, func(l nn.Layer) {
		c, ok := l.(*nn.Conv2D)
		if !ok || len(c.SavedRefs()) == 0 || c.SavedRefs()[0].T == nil {
			return
		}
		in := c.SavedRefs()[0].T.Shape
		ho := (in.H+2*c.Pad-c.Kernel)/c.Stride + 1
		wo := (in.W+2*c.Pad-c.Kernel)/c.Stride + 1
		out = append(out, gemmShape{c.OutC, c.InC * c.Kernel * c.Kernel, ho * wo})
	})
	return out
}

func probeGemm(c config, peakGFLOPS float64) map[string]float64 {
	d := c.Sz.Probe
	m, ds := c.buildModel()
	x, _ := ds.Batch(c.Sz.Batch)
	m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	shapes := convShapes(m.Net)
	rng := tensor.NewRNG(c.Seed)
	var flops float64
	maxA, maxB, maxC := 0, 0, 0
	for _, s := range shapes {
		flops += 2 * float64(s.m) * float64(s.k) * float64(s.n)
		maxA, maxB, maxC = max(maxA, s.m*s.k, s.m*s.n), max(maxB, s.k*s.n), max(maxC, s.m*s.n, s.k*s.n)
	}
	fill := func(n int) []float32 {
		t := tensor.New(1, 1, 1, n)
		t.FillNormal(rng, 0, 1)
		return t.Data
	}
	a, b, cc := fill(maxA), fill(maxB), make([]float32, maxC)
	out := map[string]float64{}
	// Forward: out = W·cols. Backward: ∇W = ∇y·colsᵀ (TB), ∇cols = Wᵀ·∇y (TA).
	out["nn.gemm_gflops"] = flops / timeIt(d, func() {
		for _, s := range shapes {
			nn.Gemm(s.m, s.k, s.n, a, b, cc)
		}
	}) / 1e9
	out["nn.gemm_tb_gflops"] = flops / timeIt(d, func() {
		for _, s := range shapes {
			nn.GemmTB(s.m, s.n, s.k, a, b, cc)
		}
	}) / 1e9
	out["nn.gemm_ta_gflops"] = flops / timeIt(d, func() {
		for _, s := range shapes {
			nn.GemmTA(s.k, s.m, s.n, a, a[:s.m*s.n], cc)
		}
	}) / 1e9
	if peakGFLOPS > 0 {
		out["nn.gemm_share_of_peak"] = out["nn.gemm_gflops"] / peakGFLOPS
	}
	return out
}

// --- sfpr, compress, coding, codec, frame -------------------------------------

func mbPerS(bytes int, seconds float64) float64 { return float64(bytes) / 1e6 / seconds }

// withDropoutSample appends a pool/dropout activation to the captured
// set. The common model saves none (ResNet18 has no dropout and its only
// pool feeds the classifier as conv/sum), so the per-kind codec probe
// makes one the way a WRN/VGG block would: the first ReLU→conv output
// through a seeded p=0.5 dropout layer.
func withDropoutSample(ts []captured, seed uint64) []captured {
	for _, t := range ts {
		if t.Kind != compress.KindReLUToConv {
			continue
		}
		d := nn.NewDropout("probe.dropout", 0.5, tensor.NewRNG(seed))
		ref := d.Forward(&nn.ActRef{Kind: t.Kind, T: t.T}, true)
		return append(append([]captured(nil), ts...), captured{Name: ref.Name, Kind: ref.Kind, T: ref.T})
	}
	return ts
}

// probeCodecLayers times the layers under the offload codec on the
// captured activations.
func probeCodecLayers(c config, ts []captured, memcpyGBs float64) (map[string]float64, error) {
	out, d := map[string]float64{}, c.Sz.Probe
	p := codec.New(quant.OptL())

	// The largest dense conv activation stands for the DCT path.
	var big *tensor.Tensor
	for _, t := range ts {
		if codec.Select(t.Kind, t.T.Shape) == frame.CodecJPEG && (big == nil || t.T.Bytes() > big.Bytes()) {
			big = t.T
		}
	}
	if big == nil {
		return nil, fmt.Errorf("no captured activation takes the JPEG path")
	}
	scales := make([]float32, big.Shape.C)
	sfpr.ComputeScales(big, p.S, scales)
	vals := make([]int8, big.Elems())
	out["sfpr.quantize_mb_per_s"] = mbPerS(big.Bytes(), timeIt(d, func() { sfpr.QuantizeInto(big, scales, vals) }))
	back := tensor.NewLike(big)
	out["sfpr.dequantize_mb_per_s"] = mbPerS(big.Bytes(), timeIt(d, func() { sfpr.DequantizeInto(vals, scales, back) }))

	pl := compress.JPEGAct(p.DQT)
	out["compress.quantize_blocks_mb_per_s"] = mbPerS(big.Bytes(), timeIt(d, func() {
		blocks, _, _ := pl.QuantizeBlocks(big)
		compress.ReleaseBlocks(blocks)
	}))
	blocks, bscales, info := pl.QuantizeBlocks(big)
	out["compress.reconstruct_blocks_mb_per_s"] = mbPerS(big.Bytes(), timeIt(d, func() { pl.ReconstructBlocks(blocks, bscales, info) }))
	var payload []byte
	out["coding.zvc_encode_mb_per_s"] = mbPerS(big.Bytes(), timeIt(d, func() { payload = coding.EncodeZVCBlocks(blocks) }))
	var derr error
	out["coding.zvc_decode_mb_per_s"] = mbPerS(big.Bytes(), timeIt(d, func() {
		if _, err := coding.DecodeZVCBlocks(payload, len(blocks)); err != nil {
			derr = err
		}
	}))
	if derr != nil {
		return nil, derr
	}
	compress.ReleaseBlocks(blocks)

	// Nonzero coefficients per 8×8 block over every DCT-path activation:
	// the live form of DESIGN.md's "~53/64 under OptL".
	var nz, nb int
	for _, t := range ts {
		if codec.Select(t.Kind, t.T.Shape) != frame.CodecJPEG {
			continue
		}
		bl, _, _ := pl.QuantizeBlocks(t.T)
		for i := range bl {
			for _, v := range bl[i] {
				if v != 0 {
					nz++
				}
			}
		}
		nb += len(bl)
		compress.ReleaseBlocks(bl)
	}
	out["coding.zvc_nonzero_per_block"] = float64(nz) / float64(nb)

	// Per activation kind: encode and decode rates in uncompressed MB/s
	// and the framed ratio.
	type acc struct {
		orig, framed int
		enc, dec     float64
	}
	kinds := map[string]*acc{}
	var frames []*frame.Frame
	var allOrig int
	var allEnc float64
	for _, t := range withDropoutSample(ts, c.Seed) {
		k := kindSlug(t.Kind)
		if kinds[k] == nil {
			kinds[k] = &acc{}
		}
		var enc codec.Encoded
		var err error
		encS := timeIt(d, func() { enc, err = p.Encode(t.Kind, t.T) })
		if err != nil {
			return nil, err
		}
		decS := timeIt(d, func() { _, err = p.Decode(enc.Frame) })
		if err != nil {
			return nil, err
		}
		a := kinds[k]
		a.orig += t.T.Bytes()
		a.framed += enc.Frame.EncodedSize()
		a.enc += encS
		a.dec += decS
		if t.Kind != compress.KindPoolDropout { // the synthetic sample stays out of the totals
			frames = append(frames, enc.Frame)
			allOrig += t.T.Bytes()
			allEnc += encS
		}
	}
	for k, a := range kinds {
		out["codec.encode_mb_per_s."+k] = mbPerS(a.orig, a.enc)
		out["codec.decode_mb_per_s."+k] = mbPerS(a.orig, a.dec)
		out["codec.ratio."+k] = float64(a.orig) / float64(a.framed)
	}
	if memcpyGBs > 0 {
		out["codec.encode_share_of_memcpy"] = mbPerS(allOrig, allEnc) / (memcpyGBs * 1e3)
	}

	// Coefficient-only decode of the DCT-path frames (the frequency-domain
	// restore's first half).
	var coefBytes int
	var coefS float64
	for _, f := range frames {
		if f.Codec != frame.CodecJPEG {
			continue
		}
		var err error
		coefS += timeIt(d, func() {
			plane, e := p.DecodeCoefficients(f)
			if e != nil {
				err = e
				return
			}
			plane.Release()
		})
		if err != nil {
			return nil, err
		}
		coefBytes += 4 * f.Shape.Elems()
	}
	out["codec.decode_coef_mb_per_s"] = mbPerS(coefBytes, coefS)
	return out, nil
}

// probeFrame times the container on the workload's frames.
func probeFrame(frames []*frame.Frame, crcGBs float64, d time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	var framed, payload int
	var encS, decS float64
	for _, f := range frames {
		var b []byte
		encS += timeIt(d, func() { b = frame.EncodeFrame(f) })
		var err error
		decS += timeIt(d, func() { _, err = frame.DecodeFrame(b) })
		if err != nil {
			return nil, err
		}
		framed += len(b)
		payload += len(f.Payload)
	}
	out["frame.encode_mb_per_s"] = mbPerS(framed, encS)
	out["frame.decode_mb_per_s"] = mbPerS(framed, decS)
	out["frame.overhead_share"] = float64(framed-payload) / float64(framed)
	if crcGBs > 0 {
		// The share of DecodeFrame's time a bare CRC32C pass over the same
		// bytes would take: 1 means the decode is nothing but its checksum.
		out["frame.decode_share_of_crc"] = float64(framed) / (crcGBs * 1e9) / decS
	}
	return out, nil
}

// probeCodecStack runs every probe under the offload codec — sfpr,
// compress, coding, codec per kind, frame — on the captured activations
// and returns their frames for the probes further down the stack.
func probeCodecStack(tc *traceCtx, ts []captured) (map[string]float64, []*frame.Frame, error) {
	out, err := probeCodecLayers(tc.config, ts, tc.bound["bound.memcpy_gb_per_s"])
	if err != nil {
		return nil, nil, err
	}
	frames, err := activationFrames(ts)
	if err != nil {
		return nil, nil, err
	}
	fp, err := probeFrame(frames, tc.bound["bound.crc32c_gb_per_s"], tc.Sz.Probe)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range fp {
		out[k] = v
	}
	return out, frames, nil
}

// activationFrames encodes the captured activations into frames.
func activationFrames(ts []captured) ([]*frame.Frame, error) {
	p := codec.New(quant.OptL())
	var out []*frame.Frame
	for _, t := range ts {
		enc, err := p.Encode(t.Kind, t.T)
		if err != nil {
			return nil, err
		}
		out = append(out, enc.Frame)
	}
	return out, nil
}

// gradientFrames encodes a seeded gradient-shaped vector of the model's
// size in BucketBytes chunks, the way the exchange does, and times the
// gradient codec while at it.
func gradientFrames(c config) ([]*frame.Frame, map[string]float64, error) {
	d := c.Sz.Probe
	m, _ := c.buildModel()
	flat := tensor.New(1, 1, 1, nn.GradSize(m.Net))
	flat.FillNormal(tensor.NewRNG(c.Seed), 0, 0.01)
	p := codec.New(quant.OptL())
	chunk := c.Sz.BucketBytes / 4
	var frames []*frame.Frame
	var encS, decS float64
	for lo := 0; lo < flat.Elems(); lo += chunk {
		hi := min(lo+chunk, flat.Elems())
		x := &tensor.Tensor{Shape: tensor.Shape{N: 1, C: 1, H: 1, W: hi - lo}, Data: flat.Data[lo:hi]}
		var enc codec.Encoded
		var err error
		encS += timeIt(d, func() { enc, err = p.EncodeGradient(frame.CodecGradRaw, x) })
		if err != nil {
			return nil, nil, err
		}
		dst := make([]float32, hi-lo)
		decS += timeIt(d, func() { err = p.DecodeGradientInto(enc.Frame, dst) })
		if err != nil {
			return nil, nil, err
		}
		frames = append(frames, enc.Frame)
	}
	return frames, map[string]float64{
		"codec.grad_encode_mb_per_s": mbPerS(flat.Bytes(), encS),
		"codec.grad_decode_mb_per_s": mbPerS(flat.Bytes(), decS),
	}, nil
}

// --- transport, netstore -----------------------------------------------------

// pipeListener hands the server one end of a net.Pipe, so its connection
// handler can be driven without a socket.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "unix"} }

// probeWire measures the stop-and-wait (window 1) client against the
// store server, and the server's bare request handling over net.Pipe
// with no client machinery at all.
func probeWire(srv *storeServer, body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	const ops = 200
	const key = uint64(0x7e57) << 32

	dial, err := transport.DialAddr(srv.Addr)
	if err != nil {
		return nil, err
	}
	cl := transport.NewNetClient(dial, nil) // Window 0: stop-and-wait
	defer cl.Close()
	var putUS, getUS []float64
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		if _, err := cl.Put(key, body, storeRetry); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := cl.Get(key, storeRetry, false); err != nil {
			return nil, err
		}
		putUS = append(putUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		getUS = append(getUS, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	if err := cl.Delete(key); err != nil {
		return nil, err
	}
	out["transport.sync_put_us_p50"] = median(putUS)
	out["transport.sync_get_us_p50"] = median(getUS)

	ln := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Srv.Serve(ln) }()
	near, far := net.Pipe()
	ln.conns <- far
	br, bw := bufio.NewReader(near), bufio.NewWriter(near)
	exchange := func(op uint8, b []byte) error {
		if err := transport.WriteRequest(bw, op, key, b); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		status, _, err := transport.ReadResponse(br)
		if err == nil && status != transport.StatusOK {
			err = fmt.Errorf("op %d: server status %d", op, status)
		}
		return err
	}
	putUS, getUS = nil, nil
	for i := 0; i < ops && err == nil; i++ {
		t0 := time.Now()
		err = exchange(transport.OpPut, body)
		t1 := time.Now()
		if err == nil {
			err = exchange(transport.OpGet, nil)
		}
		putUS = append(putUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		getUS = append(getUS, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	if err == nil {
		err = exchange(transport.OpDelete, nil)
	}
	near.Close()
	ln.Close()
	<-served
	if err != nil {
		return nil, err
	}
	out["netstore.pipe_put_us_p50"] = median(putUS)
	out["netstore.pipe_get_us_p50"] = median(getUS)
	return out, nil
}

// --- gpusim ----------------------------------------------------------------------

// probeGpusim asks the (here unvalidated) performance model for its
// prediction of what this run measures: JPEG-ACT over vDNN with the
// measured per-kind ratios, and the two-replica data-parallel speedup at
// this host's core count. Both are simulated time; host_ms is what the
// simulation itself cost.
func probeGpusim(ratios map[compress.Kind]float64, gradBytes float64) map[string]float64 {
	t0 := time.Now()
	var w gpusim.Workload
	for _, cand := range gpusim.Workloads() {
		if cand.Name == "ResNet18/IN" {
			w = cand
		}
	}
	r := gpusim.JPEGActDefaultRatios()
	for k, v := range ratios {
		if v > 0 {
			r[k] = v
		}
	}
	scheme, cfg := gpusim.JPEGAct(r), gpusim.TitanV(4)
	out := map[string]float64{"gpusim.pred_speedup_vs_vdnn": gpusim.Relative(w, scheme, cfg)}
	out["gpusim.pred_dp2_speedup"] = gpusim.SimulateDataParallel(w, scheme, cfg, gpusim.DPConfig{
		GPUs: 2, GradBytes: gradBytes, GradRatio: 1, Overlap: 1, HostCores: runtime.GOMAXPROCS(0),
	}).Speedup
	out["gpusim.host_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	return out
}
