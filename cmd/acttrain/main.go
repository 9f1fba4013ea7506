// Command acttrain trains one of the bundled mini networks under a chosen
// activation-compression method and reports per-epoch accuracy/PSNR,
// compression ratio and recovered-activation error.
//
// Usage:
//
//	acttrain -model ResNet50 -method jpeg-act -epochs 6
//	acttrain -model VDSR -method gist
//	acttrain -model WRN -method jpeg-base80 -epochs 8
//
// With -offload the activations really cross a host-memory channel as
// framed CRC-checked buffers; -flip/-trunc/-drop inject channel faults
// and -policy selects the recovery (fail|retry|recompute). -async runs
// the pipelined engine (offload–compute overlap, restores prefetched
// during backward); the trajectory is bit-identical to the synchronous
// path:
//
//	acttrain -model ResNet18 -offload -flip 1e-5 -policy recompute
//	acttrain -model ResNet18 -offload -async
//
// With -store the offload traffic targets a shared networked activation
// store (cmd/actstore) instead of the in-process channel; -store-key
// namespaces this trainer's keys when several share one server:
//
//	acttrain -model ResNet18 -offload -async -store unix:/tmp/actstore.sock -store-key 1
//
// With -replicas K the step runs data-parallel: K workers train on
// disjoint microbatch shards and exchange compressed gradients through
// the activation-store transport (in-process, or a shared networked
// store with -store). Final weights are bit-identical for any K up to
// -microbatches:
//
//	acttrain -model ResNet18 -replicas 4 -microbatches 4
//
// Every mode ends its output with the SHA-256 of the trained weights:
// runs whose trajectories are bit-identical (local or networked store,
// any replica count, a store killed and restarted mid-run) print the
// same line.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"jpegact"
)

func methodByName(name string) (jpegact.Method, bool) {
	switch strings.ToLower(name) {
	case "baseline", "none", "vdnn":
		return jpegact.Baseline(), true
	case "cdma", "cdma+", "zvc":
		return jpegact.CDMAPlus(), true
	case "gist":
		return jpegact.GIST(), true
	case "sfpr":
		return jpegact.SFPR(), true
	case "jpeg-base80":
		return jpegact.JPEGBase(80), true
	case "jpeg-base60":
		return jpegact.JPEGBase(60), true
	case "jpeg-act", "optl5h":
		return jpegact.JPEGACT(), true
	case "optl":
		return jpegact.JPEGACTWith(jpegact.FixedDQT(jpegact.OptL())), true
	case "opth":
		return jpegact.JPEGACTWith(jpegact.FixedDQT(jpegact.OptH())), true
	}
	return nil, false
}

func main() {
	model := flag.String("model", "ResNet50", "VGG|ResNet18|ResNet50|ResNet101|WRN|VDSR")
	method := flag.String("method", "jpeg-act",
		"baseline|cdma|gist|sfpr|jpeg-base80|jpeg-base60|jpeg-act|optl|opth")
	epochs := flag.Int("epochs", 6, "training epochs")
	batches := flag.Int("batches", 8, "batches per epoch")
	batch := flag.Int("batch", 8, "batch size")
	width := flag.Int("width", 8, "base channel width")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	useOffload := flag.Bool("offload", false,
		"route activations through the real host-memory offload channel")
	policy := flag.String("policy", "recompute",
		"corruption recovery with -offload: fail|retry|recompute")
	flip := flag.Float64("flip", 0, "channel bit-flip rate per byte")
	trunc := flag.Float64("trunc", 0, "channel truncation rate per transfer")
	drop := flag.Float64("drop", 0, "channel drop rate per transfer")
	async := flag.Bool("async", false,
		"with -offload: pipeline compression and channel transfers against compute")
	freq := flag.Bool("freq", false,
		"with -offload: restore qualifying activations as DCT coefficient planes (skip the inverse transform)")
	store := flag.String("store", "",
		"with -offload: networked activation-store address (unix:/path or tcp:host:port; see cmd/actstore)")
	storeKey := flag.Uint64("store-key", 0,
		"with -store: client id namespacing this trainer's keys on the shared store (keys become id<<32 | seq)")
	storeTimeout := flag.Duration("store-timeout", 5*time.Second,
		"with -store: total wall budget per wire op across reconnect+resend; a dead store fails typed and trips the circuit breaker into degraded local mode (0 = unbounded)")
	noDegrade := flag.Bool("no-degrade", false,
		"with -store: disable the circuit breaker; wire failures fail the run instead of degrading to local offload")
	replicas := flag.Int("replicas", 0,
		"data-parallel replica workers exchanging gradients through the activation-store transport (0 = regular single-worker training)")
	microbatches := flag.Int("microbatches", 4,
		"with -replicas: fixed microbatches per step; weights are bit-identical for any replica count up to this")
	flag.Parse()

	m, ok := methodByName(*method)
	if !ok {
		fmt.Fprintf(os.Stderr, "acttrain: unknown method %q\n", *method)
		os.Exit(2)
	}
	cfg := jpegact.TrainConfig{
		Method: m, Epochs: *epochs, BatchesPerEpoch: *batches,
		BatchSize: *batch, MeasureError: true,
	}
	sc := jpegact.ModelScale{Width: *width, Blocks: 1}

	// -method picks the functional round-trip's codec. The offload store
	// always runs JPEG-ACT/OptL and the data-parallel trainer leaves
	// activations alone, so an explicit -method there would print one
	// thing and train another.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "method" && (*useOffload || *replicas > 0) {
			fmt.Fprintln(os.Stderr, "acttrain: -method applies to plain training only; -offload always stores JPEG-ACT/OptL and -replicas does not compress activations")
			os.Exit(2)
		}
	})
	if *replicas > 0 {
		if *useOffload {
			fmt.Fprintln(os.Stderr, "acttrain: -replicas runs its own transport; drop -offload")
			os.Exit(2)
		}
		runDataParallel(*model, sc, cfg, *seed, *replicas, *microbatches,
			*store, *storeTimeout)
		return
	}

	if *useOffload {
		runOffloaded(*model, sc, cfg, *seed, *policy, *flip, *trunc, *drop,
			*async, *freq, *store, *storeKey, *storeTimeout, *noDegrade)
		return
	}
	if *store != "" {
		fmt.Fprintln(os.Stderr, "acttrain: -store requires -offload")
		os.Exit(2)
	}

	var rep jpegact.TrainReport
	if *model == "VDSR" {
		rep = jpegact.TrainSuperRes(sc, cfg, *seed)
	} else {
		rep = jpegact.TrainClassifier(*model, sc, cfg, *seed)
	}

	fmt.Printf("model=%s method=%s\n", rep.ModelName, rep.MethodName)
	fmt.Printf("%-6s %-9s %-9s %-8s %-10s\n", "epoch", "loss", "score", "ratio", "act-L2-err")
	for _, e := range rep.Epochs {
		fmt.Printf("%-6d %-9.4f %-9.4f %-8.2f %-10.3e\n",
			e.Epoch, e.Loss, e.Score, e.CompressionRatio, e.ActL2Error)
	}
	fmt.Printf("best score %.4f, final ratio %.2fx, diverged=%v\n",
		rep.BestScore, rep.FinalRatio, rep.Diverged)
	if len(rep.Footprint) > 0 {
		fmt.Println("footprint by activation kind:")
		for _, fe := range rep.Footprint {
			fmt.Printf("  %-16s %8d B -> %8d B (%.2fx)\n",
				fe.Kind.String(), fe.OriginalBytes, fe.CompressedBytes,
				float64(fe.OriginalBytes)/float64(fe.CompressedBytes))
		}
	}
	finish(rep)
}

// finish prints the weights digest — the last line of every mode — and
// exits non-zero on a diverged run.
func finish(rep jpegact.TrainReport) {
	fmt.Printf("weights sha256=%s\n", rep.WeightsDigest)
	if rep.Diverged {
		os.Exit(1)
	}
}

// runDataParallel trains with K replica workers exchanging gradients
// through the activation-store transport (in-process by default; a
// shared networked store with -store) and reports the exchange counters.
func runDataParallel(model string, sc jpegact.ModelScale, cfg jpegact.TrainConfig, seed uint64, replicas, microbatches int, store string, storeTimeout time.Duration) {
	if model == "VDSR" {
		fmt.Fprintln(os.Stderr, "acttrain: -replicas supports the classification models only")
		os.Exit(2)
	}
	dp := jpegact.DataParallelOptions{
		Replicas: replicas, Microbatches: microbatches,
		StoreTimeout: storeTimeout, Verbose: true,
	}
	if store != "" {
		dial, err := jpegact.DialActivationStore(store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acttrain: %v\n", err)
			os.Exit(1)
		}
		dp.StoreDial = dial
	}
	cfg.Seed = seed

	rep, snap, err := jpegact.TrainClassifierDataParallel(model, sc, cfg, dp, seed)
	fmt.Printf("model=%s method=%s\n", rep.ModelName, rep.MethodName)
	fmt.Printf("%-6s %-9s %-9s\n", "epoch", "loss", "score")
	for _, e := range rep.Epochs {
		fmt.Printf("%-6d %-9.4f %-9.4f\n", e.Epoch, e.Loss, e.Score)
	}
	fmt.Printf("exchange: grad_puts=%d grad_gets=%d grad_bytes=%d reconnects=%d\n",
		snap.GradPuts, snap.GradGets, snap.BytesGrad, snap.Reconnects)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acttrain: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("best score %.4f, diverged=%v\n", rep.BestScore, rep.Diverged)
	finish(rep)
}

// runOffloaded trains over the real host-memory channel, optionally
// fault-injected, and reports the store's recovery counters.
func runOffloaded(model string, sc jpegact.ModelScale, cfg jpegact.TrainConfig, seed uint64, policy string, flip, trunc, drop float64, async, freq bool, store string, storeKey uint64, storeTimeout time.Duration, noDegrade bool) {
	if model == "VDSR" {
		fmt.Fprintln(os.Stderr, "acttrain: -offload supports the classification models only")
		os.Exit(2)
	}
	var pol jpegact.RecoveryPolicy
	switch strings.ToLower(policy) {
	case "fail":
		pol = jpegact.RecoverFail
	case "retry":
		pol = jpegact.RecoverRetry
	case "recompute":
		pol = jpegact.RecoverRecompute
	default:
		fmt.Fprintf(os.Stderr, "acttrain: unknown policy %q\n", policy)
		os.Exit(2)
	}
	oc := jpegact.OffloadTrainOptions{
		DQT: jpegact.OptL(), Policy: pol, Verbose: true,
		Async: async, FreqDomain: freq, StoreAddr: store, StoreKeyBase: storeKey << 32,
		StoreTimeout: storeTimeout, NoDegrade: noDegrade,
	}
	if store != "" && (flip > 0 || trunc > 0 || drop > 0) {
		fmt.Fprintln(os.Stderr, "acttrain: -flip/-trunc/-drop inject on the in-process channel; they have no effect with -store")
		os.Exit(2)
	}
	var inj *jpegact.FaultInjector
	if flip > 0 || trunc > 0 || drop > 0 {
		inj = jpegact.NewFaultInjector(jpegact.FaultConfig{
			Seed: 1, BitFlipPerByte: flip, TruncationRate: trunc, DropRate: drop,
		})
		oc.Channel = inj
	}

	rep, stats, err := jpegact.TrainClassifierOffloaded(model, sc, cfg, oc, seed)
	fmt.Printf("model=%s method=%s\n", rep.ModelName, rep.MethodName)
	fmt.Printf("%-6s %-9s %-9s %-8s\n", "epoch", "loss", "score", "ratio")
	for _, e := range rep.Epochs {
		fmt.Printf("%-6d %-9.4f %-9.4f %-8.2f\n", e.Epoch, e.Loss, e.Score, e.CompressionRatio)
	}
	fmt.Printf("channel: offloaded=%d restored=%d corrupted=%d retried=%d recomputed=%d dropped=%d reconnects=%d verified=%dB\n",
		stats.Offloaded, stats.Restored, stats.Corrupted, stats.Retried,
		stats.Recomputed, stats.Dropped, stats.Reconnects, stats.BytesVerified)
	if stats.Degraded > 0 {
		fmt.Printf("failure-domain: degraded=%d\n", stats.Degraded)
	}
	if freq && stats.Restored > 0 {
		fmt.Printf("freq: coef_restores=%d/%d (%.1f%%)\n", stats.CoefRestores, stats.Restored,
			100*float64(stats.CoefRestores)/float64(stats.Restored))
	}
	if inj != nil {
		s := inj.Stats()
		fmt.Printf("injector: transfers=%d flips=%d truncations=%d drops=%d forced=%d\n",
			s.Transfers, s.Flips, s.Truncations, s.Drops, s.Forced)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "acttrain: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("best score %.4f, final ratio %.2fx, diverged=%v\n",
		rep.BestScore, rep.FinalRatio, rep.Diverged)
	finish(rep)
}
