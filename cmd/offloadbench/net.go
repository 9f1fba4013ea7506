package main

// The -net mode: multi-client load against the networked activation
// store. Each client is a full offloaded training loop (async engine,
// prefetch) whose store talks to the server over the wire protocol; the
// sweep scales the client count and reports aggregate throughput plus
// request-latency percentiles. All clients run the same seeds, so every
// trajectory must match a local in-process reference run bit for bit —
// the transport may only change timing, never bytes.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"jpegact/internal/benchmeta"
	"jpegact/internal/frame"
	"jpegact/internal/netfaults"
	"jpegact/internal/offload"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/netstore"
	"jpegact/internal/offload/transport"
	"jpegact/internal/tensor"
	"jpegact/internal/train"
)

// latCollector gathers per-request wall-clock latencies from the
// NetClient hooks of every concurrent client.
type latCollector struct {
	mu sync.Mutex
	us []float64
}

func (l *latCollector) observe(_ uint8, d time.Duration) {
	us := float64(d.Nanoseconds()) / 1e3
	l.mu.Lock()
	l.us = append(l.us, us)
	l.mu.Unlock()
}

func (l *latCollector) percentiles() (n int, p50, p95, p99 float64) {
	l.mu.Lock()
	us := append([]float64(nil), l.us...)
	l.mu.Unlock()
	sort.Float64s(us)
	pct := func(p float64) float64 {
		if len(us) == 0 {
			return 0
		}
		i := int(p*float64(len(us)-1) + 0.5)
		return us[i]
	}
	return len(us), pct(.50), pct(.95), pct(.99)
}

type netClientsResult struct {
	Clients        int     `json:"clients"`
	TotalMS        float64 `json:"total_ms"`
	StepsPerSec    float64 `json:"steps_per_sec"`
	ThroughputMBps float64 `json:"throughput_mb_per_s"` // frame bytes put + verified back, over the wall clock
	Ops            int     `json:"ops"`
	P50us          float64 `json:"latency_p50_us"`
	P95us          float64 `json:"latency_p95_us"`
	P99us          float64 `json:"latency_p99_us"`
	Reconnects     uint64  `json:"reconnects"`
	// Failure-domain counters: nonzero only when the run actually lived
	// through faults (chaos mode, hedging, a degrading store).
	Degraded   uint64 `json:"degraded,omitempty"`
	Hedged     uint64 `json:"hedged,omitempty"`
	Recomputed uint64 `json:"recomputed,omitempty"`
}

type netReport struct {
	Benchmark    string              `json:"benchmark"`
	Meta         benchmeta.Meta      `json:"meta"`
	Model        string              `json:"model"`
	BatchSize    int                 `json:"batch_size"`
	Steps        int                 `json:"steps"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	Workers      int                 `json:"workers"`
	Prefetch     int                 `json:"prefetch"`
	Addr         string              `json:"addr"`
	Shards       int                 `json:"shards"`
	Replicas     int                 `json:"replicas"`
	HedgeUS      float64             `json:"hedge_us,omitempty"`
	ChaosSeed    uint64              `json:"chaos_seed,omitempty"`
	Results      []netClientsResult  `json:"results"`
	ReplicaReads uint64              `json:"replica_reads,omitempty"`
	Chaos        *netfaults.Snapshot `json:"chaos,omitempty"`
	// Replicated-overhead pass (in-process server only): one client's
	// PUT p95 against a single-replica server vs an R-replica one. The
	// extra copies are server-side shard memcopies, so the acceptance
	// bar for the fan-out is <= 1.25x the single-replica p95.
	SingleP95us           float64 `json:"single_replica_put_p95_us,omitempty"`
	ReplicatedP95us       float64 `json:"replicated_put_p95_us,omitempty"`
	ReplicatedP95Overhead float64 `json:"replicated_p95_overhead,omitempty"`
	// Pipelining microbench (in-process server only): 64 GETs against a
	// server injecting a fixed per-response service delay, stop-and-wait
	// (window 1) vs a pipelined window on one connection. Pipelined
	// requests overlap their delays, so the expected speedup approaches
	// the window size; the acceptance bar is >= 2x.
	PipelineWindow  int     `json:"pipeline_window"`
	SerialGetMS     float64 `json:"serial_get_ms,omitempty"`
	PipelinedGetMS  float64 `json:"pipelined_get_ms,omitempty"`
	PipelineSpeedup float64 `json:"pipeline_speedup,omitempty"`
	TrajectoryMatch bool    `json:"trajectory_match"`
}

func parseClients(spec string) []int {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			fatal("net", fmt.Errorf("bad -clients entry %q", part))
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		fatal("net", fmt.Errorf("-clients %q selects no client counts", spec))
	}
	return out
}

// netBenchConfig carries the -net mode's flag surface.
type netBenchConfig struct {
	addr         string
	clients      string
	shards       int
	replicas     int
	steps        int
	batch        int
	width        int
	procs        int
	prefetch     int
	pipeline     int
	hedge        time.Duration
	storeTimeout time.Duration
	chaosSeed    uint64
}

// startServer launches an in-process netstore server on a fresh unix
// socket and returns it with its address and a cleanup.
func startServer(cfg netstore.Config) (*netstore.Server, string, func()) {
	tmp, err := os.MkdirTemp("", "actstore")
	if err != nil {
		fatal("net", err)
	}
	addr := "unix:" + filepath.Join(tmp, "store.sock")
	srv := netstore.New(cfg)
	ln, err := srv.Listen(addr)
	if err != nil {
		fatal("net", err)
	}
	go srv.Serve(ln)
	return srv, addr, func() {
		srv.Close()
		os.RemoveAll(tmp)
	}
}

// replicatedOverheadPass times one client's wire PUTs against a fresh
// single-replica server and against an R-replica one, returning both
// p95s. Replication fans each PUT into R shard memcopies on the server,
// so the replicated p95 is expected within 1.25x of the single one.
func replicatedOverheadPass(cfg netBenchConfig, ec offload.EngineConfig, replicas int) (p95single, p95repl float64) {
	run := func(r int) float64 {
		srv, addr, cleanup := startServer(netstore.Config{Shards: cfg.shards, Replicas: r})
		defer cleanup()
		_ = srv
		dial, err := transport.DialAddr(addr)
		if err != nil {
			fatal("net", err)
		}
		col := &latCollector{}
		setup := func(s *offload.Store) {
			c := transport.NewNetClient(dial, s.Counters())
			c.Latency = func(op uint8, d time.Duration) {
				if op == transport.OpPut {
					col.observe(op, d)
				}
			}
			s.Transport = c
		}
		runMode(fmt.Sprintf("replica-overhead-r%d", r), ec, false, cfg.steps, cfg.batch, cfg.width, setup)
		_, _, p95, _ := col.percentiles()
		return p95
	}
	return run(1), run(replicas)
}

// pipelinePass times the same 64 GETs twice against a fresh server that
// injects a fixed per-response delay: once stop-and-wait (window 1) and
// once with `window` requests pipelined on the single connection. The
// delay dominates the wire time deterministically, so the measured
// ratio is the pipelining win itself, not scheduler noise.
func pipelinePass(window int) (serialMS, pipedMS float64) {
	const (
		ops   = 64
		delay = 2 * time.Millisecond
	)
	srv, addr, cleanup := startServer(netstore.Config{RespDelay: delay})
	defer cleanup()
	_ = srv
	dial, err := transport.DialAddr(addr)
	if err != nil {
		fatal("net", err)
	}
	// One small, valid gradient frame: the server CRC-validates PUT
	// bodies before storing them.
	x := &tensor.Tensor{Shape: tensor.Shape{N: 1, C: 1, H: 1, W: 64}, Data: make([]float32, 64)}
	enc, err := codec.Pipeline{}.EncodeGradient(frame.CodecGradRaw, x)
	if err != nil {
		fatal("net", err)
	}
	body := frame.EncodeFrame(enc.Frame)

	run := func(w int) float64 {
		c := transport.NewNetClient(dial, nil)
		c.Window = w
		defer c.Close()
		retry := transport.Retry{Attempts: 2}
		for k := 0; k < ops; k++ {
			if _, err := c.Put(uint64(k+1), body, retry); err != nil {
				fatal("net", err)
			}
		}
		start := time.Now()
		pending := make([]*transport.Pending, 0, ops)
		for k := 0; k < ops; k++ {
			pending = append(pending, c.GetAsync(uint64(k+1), retry, false))
		}
		for _, p := range pending {
			if _, err := p.GetResult(); err != nil {
				fatal("net", err)
			}
		}
		return float64(time.Since(start).Microseconds()) / 1e3
	}
	return run(1), run(window)
}

// runNetBench drives the client-count sweep and writes the JSON report
// to stdout (scripts/bench.sh lands it in BENCH_netstore.json).
func runNetBench(cfg netBenchConfig) {
	external := cfg.addr != ""
	if cfg.shards <= 0 {
		cfg.shards = netstore.DefaultShards
	}
	if cfg.replicas < 1 {
		cfg.replicas = 1
	}
	addr := cfg.addr
	var srv *netstore.Server
	if !external {
		var cleanup func()
		srv, addr, cleanup = startServer(netstore.Config{Shards: cfg.shards, Replicas: cfg.replicas})
		defer cleanup()
	}
	dial, err := transport.DialAddr(addr)
	if err != nil {
		fatal("net", err)
	}
	// Chaos mode wraps every connection in the deterministic fault
	// injector: resets mid-frame, stalls and latency spikes. Recovery is
	// content-transparent (reconnect+resend, recompute replay, breaker
	// degradation), so the trajectory check below still demands
	// bit-identity with the local reference.
	var inj *netfaults.Injector
	if cfg.chaosSeed != 0 {
		inj = netfaults.New(netfaults.Config{
			Seed:     cfg.chaosSeed,
			PReset:   0.01,
			PLatency: 0.02, Latency: time.Millisecond,
			PStall: 0.01, Stall: 10 * time.Millisecond,
		})
		dial = transport.Dialer(inj.WrapDialer(dial))
	}
	opTimeout := train.StoreOpTimeout(cfg.storeTimeout)

	ec := offload.EngineConfig{Async: true, Prefetch: cfg.prefetch, PipelineWindow: cfg.pipeline}
	// Every client runs the same seeds, so the local run is the exact
	// trajectory each of them must reproduce over the wire.
	ref := runMode("local-ref", ec, false, cfg.steps, cfg.batch, cfg.width, nil)

	rep := netReport{
		Benchmark:       "netstore_multiclient",
		Meta:            benchmeta.Collect(),
		Model:           fmt.Sprintf("ResNet18/w%d", cfg.width),
		BatchSize:       cfg.batch,
		Steps:           cfg.steps,
		GOMAXPROCS:      cfg.procs,
		Workers:         cfg.procs,
		Prefetch:        cfg.prefetch,
		Addr:            addr,
		Shards:          cfg.shards,
		Replicas:        cfg.replicas,
		HedgeUS:         float64(cfg.hedge.Microseconds()),
		ChaosSeed:       cfg.chaosSeed,
		TrajectoryMatch: true,
	}

	for _, n := range parseClients(cfg.clients) {
		col := &latCollector{}
		results := make([]modeResult, n)
		var wg sync.WaitGroup
		start := time.Now()
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				setup := func(s *offload.Store) {
					c := transport.NewNetClient(dial, s.Counters())
					c.Latency = col.observe
					c.OpTimeout = opTimeout
					c.Hedge = cfg.hedge
					c.Window = cfg.pipeline
					s.Transport = c
					// Disjoint key spaces: concurrent clients must never
					// collide on the shared server.
					s.KeyBase = uint64(id+1) << 32
					s.Recovery.OpTimeout = opTimeout
					s.Recovery.Deadline = cfg.storeTimeout
					if cfg.chaosSeed != 0 {
						// Chaos runs must survive whole-op failures: retry
						// hard, replay the step when a restore is lost, and
						// degrade through the breaker rather than die.
						s.Recovery.Policy = offload.PolicyRecompute
						s.Recovery.MaxRetries = 8
						s.Breaker = offload.BreakerConfig{FailureThreshold: 1, ProbeAfter: 16}
					}
				}
				results[id] = runMode(fmt.Sprintf("net-c%d-id%d", n, id), ec, false, cfg.steps, cfg.batch, cfg.width, setup)
			}(id)
		}
		wg.Wait()
		wall := time.Since(start)

		var bytes int64
		var reconnects, degraded, hedged, recomputed uint64
		for _, res := range results {
			bytes += res.stats.BytesOffloaded + res.stats.BytesVerified
			reconnects += res.stats.Reconnects
			degraded += res.stats.Degraded
			hedged += res.stats.Hedged
			recomputed += res.stats.Recomputed
			for i, l := range res.Losses {
				if l != ref.Losses[i] {
					rep.TrajectoryMatch = false
				}
			}
		}
		ops, p50, p95, p99 := col.percentiles()
		rep.Results = append(rep.Results, netClientsResult{
			Clients:        n,
			TotalMS:        float64(wall.Microseconds()) / 1e3,
			StepsPerSec:    float64(n*cfg.steps) / wall.Seconds(),
			ThroughputMBps: float64(bytes) / 1e6 / wall.Seconds(),
			Ops:            ops,
			P50us:          p50,
			P95us:          p95,
			P99us:          p99,
			Reconnects:     reconnects,
			Degraded:       degraded,
			Hedged:         hedged,
			Recomputed:     recomputed,
		})
		fmt.Fprintf(os.Stderr, "offloadbench: net clients=%d wall=%v ops=%d p50=%.0fus p95=%.0fus p99=%.0fus\n",
			n, wall.Round(time.Millisecond), ops, p50, p95, p99)
	}

	if srv != nil {
		rep.ReplicaReads = srv.Snapshot().ReplicaReads
	}
	if inj != nil {
		snap := inj.Stats()
		rep.Chaos = &snap
	}

	// The replicated-overhead and pipelining passes need their own clean
	// servers, so they only run against the in-process backend and
	// outside chaos mode.
	if !external && inj == nil {
		r := cfg.replicas
		if r < 2 {
			r = 2
		}
		rep.SingleP95us, rep.ReplicatedP95us = replicatedOverheadPass(cfg, ec, r)
		if rep.SingleP95us > 0 {
			rep.ReplicatedP95Overhead = rep.ReplicatedP95us / rep.SingleP95us
		}
		fmt.Fprintf(os.Stderr, "offloadbench: replicated PUT p95 %.0fus vs single %.0fus (%.2fx, replicas=%d)\n",
			rep.ReplicatedP95us, rep.SingleP95us, rep.ReplicatedP95Overhead, r)
		if rep.ReplicatedP95Overhead > 1.25 {
			fmt.Fprintln(os.Stderr, "offloadbench: WARNING: replicated-PUT overhead exceeds the 1.25x acceptance bar")
		}

		w := cfg.pipeline
		if w < 2 {
			w = 8
		}
		rep.PipelineWindow = w
		rep.SerialGetMS, rep.PipelinedGetMS = pipelinePass(w)
		if rep.PipelinedGetMS > 0 {
			rep.PipelineSpeedup = rep.SerialGetMS / rep.PipelinedGetMS
		}
		fmt.Fprintf(os.Stderr, "offloadbench: pipelined GETs %.1fms vs serial %.1fms (%.2fx at window %d)\n",
			rep.PipelinedGetMS, rep.SerialGetMS, rep.PipelineSpeedup, w)
		if rep.PipelineSpeedup < 2 {
			fmt.Fprintln(os.Stderr, "offloadbench: WARNING: pipelining speedup below the 2x acceptance bar")
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal("net", err)
	}
	if !rep.TrajectoryMatch {
		fmt.Fprintln(os.Stderr, "offloadbench: a networked client diverged from the local trajectory")
		os.Exit(1)
	}
}
