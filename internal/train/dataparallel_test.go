package train

import (
	"strings"
	"sync"
	"testing"
	"time"

	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/netfaults"
	"jpegact/internal/nn"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// dpFixture returns a deterministic replica factory (recording the
// first replica so the test can inspect its final weights) and a fresh
// dataset for one data-parallel run.
func dpFixture(seed uint64) (func() *models.Model, func() *models.Model, *data.Classification) {
	var first *models.Model
	newModel := func() *models.Model {
		m := models.ResNet18(models.Scale{Width: 6, Blocks: 1}, 2, tensor.NewRNG(seed))
		if first == nil {
			first = m
		}
		return m
	}
	ds := data.NewClassification(data.ClassificationConfig{
		Classes: 2, Channels: 3, H: 16, W: 16, Seed: seed + 1,
	})
	return newModel, func() *models.Model { return first }, ds
}

// dpCfg is the short run the data-parallel tests share; it also pins the
// calling test to two parallel workers.
func dpCfg(t testing.TB) Config {
	atWorkers(t, 2)
	return Config{Epochs: 2, BatchesPerEpoch: 2, BatchSize: 4, LR: 0.05, Seed: 77}
}

// dpRun trains one data-parallel run and returns the report, counters
// and replica 0's trained model.
func dpRun(t *testing.T, seed uint64, dp DPOptions) (Report, transport.Snapshot, *models.Model) {
	t.Helper()
	newModel, lead, ds := dpFixture(seed)
	rep, snap, err := ClassifierDataParallel(newModel, ds, dpCfg(t), dp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged {
		t.Fatal("diverged")
	}
	return rep, snap, lead()
}

// TestDataParallelBitExact is the tentpole acceptance test: the final
// weights must be element-wise identical for K=1, 2 and 4 replicas —
// over the in-process transport, over a networked activation store
// (serving activation offload traffic concurrently), and under seeded
// connection chaos — with the gradient-exchange counters proving the
// traffic really happened.
func TestDataParallelBitExact(t *testing.T) {
	const M = 4

	// In-process transport: K=1 is the reference trajectory.
	ref, refSnap, refModel := dpRun(t, 1500, DPOptions{Replicas: 1, Microbatches: M})
	if refSnap.GradPuts == 0 || refSnap.GradGets == 0 || refSnap.BytesGrad == 0 {
		t.Fatalf("gradient exchange counters empty on K=1: %+v", refSnap)
	}
	// Per step: M microbatch puts + 1 reduced put; M reducer gets + K
	// replica gets.
	steps := uint64(dpCfg(t).Epochs * dpCfg(t).BatchesPerEpoch)
	if want := steps * (M + 1); refSnap.GradPuts != want {
		t.Fatalf("grad puts %d, want %d", refSnap.GradPuts, want)
	}

	for _, K := range []int{2, 4} {
		rep, snap, m := dpRun(t, 1500, DPOptions{Replicas: K, Microbatches: M})
		sameEpochs(t, ref, rep, "local K")
		sameWeights(t, refModel, m, "local K")
		if snap.GradPuts != refSnap.GradPuts {
			t.Fatalf("K=%d grad puts %d, want %d (K must not change the exchange volume of puts)", K, snap.GradPuts, refSnap.GradPuts)
		}
	}

	// Networked store, with activation offload traffic from a second
	// trainer hitting the same server concurrently: one actstore serves
	// both key namespaces at once.
	srv, dial := startStore(t)
	var wg sync.WaitGroup
	wg.Add(1)
	var actErr error
	actCfg := faultCfg(t)
	go func() {
		defer wg.Done()
		m, ds := faultModel(700)
		_, _, actErr = ClassifierOffloaded(m, ds, actCfg, OffloadOptions{
			DQT: quant.OptL(), StoreDial: dial, StoreKeyBase: 1 << 32,
		})
	}()
	netRep, netSnap, netModel := dpRun(t, 1500, DPOptions{
		Replicas: 2, Microbatches: M, StoreDial: dial,
	})
	wg.Wait()
	if actErr != nil {
		t.Fatalf("concurrent offloaded trainer failed: %v", actErr)
	}
	sameEpochs(t, ref, netRep, "netstore")
	sameWeights(t, refModel, netModel, "netstore")
	if netSnap.GradPuts != refSnap.GradPuts {
		t.Fatalf("netstore grad puts %d, want %d", netSnap.GradPuts, refSnap.GradPuts)
	}
	ss := srv.Snapshot()
	if ss.GradPuts == 0 || ss.GradGets == 0 || ss.BytesGrad == 0 {
		t.Fatalf("server-side gradient counters empty: %+v", ss)
	}
	if ss.Offloaded <= ss.GradPuts {
		t.Fatalf("server saw no activation traffic beyond gradients: %+v", ss)
	}
	if srv.Entries() != 0 {
		t.Fatalf("%d entries leaked on the server", srv.Entries())
	}

	// Seeded connection chaos on the gradient path: resets mid-frame,
	// latency spikes, stalls. Reconnect+resend must absorb everything —
	// same weights, and the counters must prove the chaos bit.
	_, dial2 := startStore(t)
	inj := netfaults.New(netfaults.Config{
		Seed:     42,
		PReset:   0.02,
		PLatency: 0.05, Latency: time.Millisecond,
		PStall: 0.02, Stall: 20 * time.Millisecond,
	})
	chaosRep, chaosSnap, chaosModel := dpRun(t, 1500, DPOptions{
		Replicas:     4,
		Microbatches: M,
		StoreDial:    transport.Dialer(inj.WrapDialer(dial2)),
		StoreTimeout: 5 * time.Second,
	})
	sameEpochs(t, ref, chaosRep, "chaos")
	sameWeights(t, refModel, chaosModel, "chaos")
	if chaosSnap.GradPuts == 0 || chaosSnap.GradGets == 0 {
		t.Fatalf("chaos run exchanged no gradients: %+v", chaosSnap)
	}
	if inj.Stats().Resets == 0 {
		t.Fatal("the chaos injector never reset a connection")
	}
	if chaosSnap.Reconnects == 0 {
		t.Fatal("no reconnects — resets never bit the gradient path")
	}
}

// TestDataParallelRejectsTooManyReplicas: K > M is a configuration
// error, not a silent truncation — and so is any count the gradient key
// cannot hold (transport.GradKey masks an oversized chunk, slot or step
// onto another key, which would average the wrong gradients silently).
func TestDataParallelRejectsTooManyReplicas(t *testing.T) {
	newModel, _, ds := dpFixture(1700)
	if _, _, err := ClassifierDataParallel(newModel, ds, dpCfg(t), DPOptions{Replicas: 8, Microbatches: 4}); err == nil {
		t.Fatal("8 replicas over 4 microbatches accepted")
	}

	// A model wide enough that one-element buckets overflow the 12-bit
	// chunk field (the 2960-parameter fixture cannot).
	wide := func() *models.Model {
		return models.ResNet18(models.Scale{Width: 12, Blocks: 1}, 2, tensor.NewRNG(1700))
	}
	gradElems := nn.GradSize(wide().Net)
	longRun := dpCfg(t)
	longRun.Epochs, longRun.BatchesPerEpoch = 1<<13, 1<<12
	for _, tc := range []struct {
		name  string
		cfg   Config
		dp    DPOptions
		limit string // the error must name the exhausted field
	}{
		{"chunks", dpCfg(t), DPOptions{BucketBytes: 4}, "holds 4096"},
		{"slots", dpCfg(t), DPOptions{Microbatches: transport.GradMaxSlots}, "4095 slots"},
		{"steps", longRun, DPOptions{}, "16777216"},
	} {
		_, snap, err := ClassifierDataParallel(wide, ds, tc.cfg, tc.dp)
		if err == nil || !strings.Contains(err.Error(), tc.limit) {
			t.Fatalf("%s: want an error naming the limit %q, got %v", tc.name, tc.limit, err)
		}
		if snap.GradPuts != 0 {
			t.Fatalf("%s: rejected after %d gradient puts, want before training", tc.name, snap.GradPuts)
		}
	}
	// The chunk limit itself is legal: the smallest bucket that fits.
	atLimit := 4 * ((gradElems + transport.GradMaxChunks - 1) / transport.GradMaxChunks)
	one := dpCfg(t)
	one.Epochs, one.BatchesPerEpoch = 1, 1
	if _, _, err := ClassifierDataParallel(wide, ds, one, DPOptions{BucketBytes: atLimit, Microbatches: 1}); err != nil {
		t.Fatalf("%d-byte buckets over %d elements rejected: %v", atLimit, gradElems, err)
	}
}
