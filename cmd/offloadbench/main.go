// Command offloadbench times offloaded training steps in sync,
// async/on-demand and async+prefetch modes over a simulated DMA channel
// (fixed per-transfer latency plus a bytes/bandwidth term, the cost
// model of the paper's PCIe path) and emits a JSON report. With the
// synchronous store every transfer stalls compute; the engine hides
// them behind the forward/backward passes, so the per-step wall-clock
// difference is exactly the offload–compute overlap the scheduler buys.
//
// All modes must land on the identical loss at every step — the report
// carries a trajectory_match flag asserting it.
//
//	offloadbench -steps 16 -latency 1ms -bandwidth 2 > BENCH_offload.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"jpegact/internal/benchmeta"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
	"jpegact/internal/train"
)

// simChannel charges every transfer a DMA setup latency plus a
// bandwidth term, sleeping for the sum — so the cost is hidden exactly
// when a concurrent goroutine has compute to run.
type simChannel struct {
	latency time.Duration
	bps     float64 // bytes per second
}

func (c *simChannel) xfer(n int) {
	d := c.latency
	if c.bps > 0 {
		d += time.Duration(float64(n) / c.bps * float64(time.Second))
	}
	time.Sleep(d)
}

func (c *simChannel) Send(b []byte) []byte { c.xfer(len(b)); return b }
func (c *simChannel) Recv(b []byte) []byte { c.xfer(len(b)); return b }

type modeResult struct {
	Mode        string    `json:"mode"`
	Steps       int       `json:"steps"`
	MSPerStep   float64   `json:"ms_per_step"` // median over timed steps
	MSPerStepP0 float64   `json:"ms_per_step_min"`
	TotalMS     float64   `json:"total_ms"`
	Losses      []float64 `json:"step_losses"`
	// Restore-path split (freq mode): how many restores the coefficient
	// path served vs. the total, and the served fraction. Layers outside
	// the coefficient plan must keep falling back to the full decode, so
	// a fraction of 0 or 1 is a wiring bug either way.
	Restored     uint64  `json:"restored,omitempty"`
	CoefRestores uint64  `json:"coef_restores,omitempty"`
	CoefFraction float64 `json:"coef_fraction,omitempty"`

	stats offload.Stats // full counter snapshot, for the net-mode report
}

type report struct {
	Benchmark       string         `json:"benchmark"`
	Meta            benchmeta.Meta `json:"meta"`
	Model           string         `json:"model"`
	BatchSize       int            `json:"batch_size"`
	GOMAXPROCS      int            `json:"gomaxprocs"`
	LatencyUS       float64        `json:"channel_latency_us"`
	BandwidthGBps   float64        `json:"channel_bandwidth_gbps"`
	Results         []modeResult   `json:"results"`
	SpeedupPrefetch float64        `json:"speedup_async_prefetch_vs_sync"`
	TrajectoryMatch bool           `json:"trajectory_match"`
}

// runMode trains `steps` batches through the offload engine and times
// each step: train.OffloadedStep (forward with streaming save hooks in
// async mode, the commit barrier, restore preparation, backward) and
// the optimizer update. No evaluation pass pollutes the timing — this
// measures the training step alone, where the overlap lives. setup
// configures the store's byte path (simulated DMA channel, or a
// netstore client).
func runMode(mode string, cfg offload.EngineConfig, freq bool, steps, batch, width int, setup func(*offload.Store)) modeResult {
	m := models.ResNet18(models.Scale{Width: width, Blocks: 1}, 2, tensor.NewRNG(42))
	ds := data.NewClassification(data.ClassificationConfig{
		Classes: 2, Channels: 3, H: 16, W: 16, Seed: 43,
	})
	opt := nn.NewSGD(0.05, 0.9, 0)

	store := offload.NewStore(quant.OptL())
	if setup != nil {
		setup(store)
	}
	defer store.Close()
	eng := offload.NewEngine(store, cfg)
	defer eng.Close()

	res := modeResult{Mode: mode, Steps: steps}
	times := make([]float64, 0, steps)
	for s := 0; s < steps; s++ {
		x, labels := ds.Batch(batch)
		t0 := time.Now()
		// The trainer's own step. With the store set to PolicyRecompute (the
		// -chaos setup) a fatal wire failure costs a bit-exact replay, up
		// to 8 per step, instead of the whole benchmark.
		loss, err := train.OffloadedStep(m.Net, eng, x, labels, 8, freq)
		if err != nil {
			fatal(mode, err)
		}
		opt.Step(m.Net.Params())

		elapsed := float64(time.Since(t0).Microseconds()) / 1e3
		times = append(times, elapsed)
		res.TotalMS += elapsed
		res.Losses = append(res.Losses, loss)
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	res.MSPerStep = sorted[len(sorted)/2]
	res.MSPerStepP0 = sorted[0]
	res.stats = store.Stats()
	if freq {
		st := res.stats
		res.Restored = st.Restored
		res.CoefRestores = st.CoefRestores
		if st.Restored > 0 {
			res.CoefFraction = float64(st.CoefRestores) / float64(st.Restored)
		}
		if st.CoefRestores == 0 {
			fatal(mode, fmt.Errorf("no restore took the coefficient path"))
		}
		if st.CoefRestores >= st.Restored {
			fatal(mode, fmt.Errorf("all %d restores took the coefficient path; the spatial fallback never covered a non-capable layer", st.Restored))
		}
	}
	return res
}

func fatal(mode string, err error) {
	fmt.Fprintf(os.Stderr, "offloadbench: %s: %v\n", mode, err)
	os.Exit(1)
}

// ensureProcs gives the runtime the second P the async overlap
// measurement needs (transfer completions must be serviceable while the
// compute goroutine holds a CPU, like a real DMA engine beside the
// cores). A GOMAXPROCS=1 pinned in the environment is refused loudly —
// silently overriding the user's pin would time a configuration they
// explicitly ruled out, and silently keeping it would serialize the
// pipeline and report a meaningless overlap.
func ensureProcs() int {
	if runtime.GOMAXPROCS(0) >= 2 {
		return runtime.GOMAXPROCS(0)
	}
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		fmt.Fprintf(os.Stderr, "offloadbench: GOMAXPROCS=%s pins the runtime to one P; the async overlap measurement is meaningless without a second one.\n", env)
		fmt.Fprintln(os.Stderr, "offloadbench: unset GOMAXPROCS or set it >= 2 and re-run.")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)
	return runtime.GOMAXPROCS(0)
}

func main() {
	steps := flag.Int("steps", 16, "training steps to time")
	batch := flag.Int("batch", 8, "batch size")
	width := flag.Int("width", 10, "model base width")
	latency := flag.Duration("latency", time.Millisecond, "per-transfer DMA latency")
	gbps := flag.Float64("bandwidth", 2, "channel bandwidth in GB/s")
	netMode := flag.Bool("net", false, "benchmark the networked activation store instead of the simulated DMA channel")
	clients := flag.String("clients", "1,2,4", "comma-separated client counts for the -net sweep")
	addr := flag.String("addr", "", "activation-store address for -net (unix:/path or tcp:host:port; empty starts an in-process server on a unix socket)")
	shards := flag.Int("shards", 0, "shard count for the in-process -net server (0 = default)")
	replicas := flag.Int("replicas", 1, "replica copies per PUT on the in-process -net server (also sets the replicated-overhead pass width)")
	pipeline := flag.Int("pipeline", 8, "wire pipelining window: max in-flight requests per connection (1 = stop-and-wait)")
	bucketBytes := flag.Int("bucket-bytes", 0, "with -dp: gradient bucket size in raw float32 bytes (0 = trainer default, 256KiB)")
	hedge := flag.Duration("hedge", 0, "with -net: hedge GETs slower than this on a second connection (0 = off)")
	storeTimeout := flag.Duration("store-timeout", 5*time.Second, "with -net: total wall budget per wire op across reconnect+resend (0 = unbounded)")
	chaos := flag.Uint64("chaos", 0, "with -net: seed for deterministic connection chaos (resets, stalls, latency spikes; 0 = off)")
	dpMode := flag.Bool("dp", false, "benchmark data-parallel replica scaling over the gradient-exchange transport")
	dpReplicas := flag.String("dp-replicas", "1,2,4", "comma-separated replica counts for the -dp sweep")
	microbatches := flag.Int("microbatches", 4, "with -dp: fixed microbatches per step (sets the replica ceiling)")
	gradCodec := flag.String("grad-codec", "raw", "with -dp: gradient codec (raw or quant)")
	flag.Parse()

	procs := ensureProcs()
	const prefetch = 4
	fmt.Fprintf(os.Stderr, "offloadbench: gomaxprocs=%d workers=%d prefetch=%d steps=%d batch=%d width=%d\n",
		procs, procs, prefetch, *steps, *batch, *width)

	if *dpMode {
		runDPBench(dpBenchConfig{
			addr: *addr, replicas: *dpReplicas, microbatches: *microbatches,
			gradCodec: *gradCodec, steps: *steps, batch: *batch, width: *width,
			procs: procs, window: *pipeline, bucketBytes: *bucketBytes,
			storeTimeout: *storeTimeout,
		})
		return
	}

	if *netMode {
		runNetBench(netBenchConfig{
			addr: *addr, clients: *clients, shards: *shards, replicas: *replicas,
			steps: *steps, batch: *batch, width: *width, procs: procs, prefetch: prefetch,
			pipeline: *pipeline, hedge: *hedge, storeTimeout: *storeTimeout, chaosSeed: *chaos,
		})
		return
	}

	ch := &simChannel{latency: *latency, bps: *gbps * 1e9}
	simSetup := func(s *offload.Store) { s.Channel = ch }
	rep := report{
		Benchmark:     "offload_step_walltime",
		Meta:          benchmeta.Collect(),
		Model:         fmt.Sprintf("ResNet18/w%d", *width),
		BatchSize:     *batch,
		GOMAXPROCS:    procs,
		LatencyUS:     float64(latency.Microseconds()),
		BandwidthGBps: *gbps,
	}
	rep.Results = append(rep.Results,
		runMode("sync", offload.EngineConfig{}, false, *steps, *batch, *width, simSetup),
		runMode("async-ondemand", offload.EngineConfig{Async: true}, false, *steps, *batch, *width, simSetup),
		runMode("async-prefetch", offload.EngineConfig{Async: true, Prefetch: prefetch}, false, *steps, *batch, *width, simSetup),
		runMode("async-prefetch-freq", offload.EngineConfig{Async: true, Prefetch: prefetch}, true, *steps, *batch, *width, simSetup),
	)

	// Best-of-steps, not median: on a shared machine the minimum is the
	// closest estimate of the undisturbed step, and it is what the
	// overlap actually bounds.
	syncR, prefR := rep.Results[0], rep.Results[2]
	rep.SpeedupPrefetch = syncR.MSPerStepP0 / prefR.MSPerStepP0
	// Spatial modes must land on bit-identical losses. The freq mode's
	// gradients carry the documented coefficient-domain tolerance, so it
	// is held to a 5% per-step band around sync instead of bit-equality.
	rep.TrajectoryMatch = true
	for _, r := range rep.Results[1:3] {
		for i, l := range r.Losses {
			if l != rep.Results[0].Losses[i] {
				rep.TrajectoryMatch = false
			}
		}
	}
	for i, l := range rep.Results[3].Losses {
		ref := rep.Results[0].Losses[i]
		if diff := l - ref; diff > 5e-2*(1+ref) || diff < -5e-2*(1+ref) {
			rep.TrajectoryMatch = false
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "offloadbench:", err)
		os.Exit(1)
	}
	if !rep.TrajectoryMatch {
		fmt.Fprintln(os.Stderr, "offloadbench: modes disagree on the training trajectory")
		os.Exit(1)
	}
}
