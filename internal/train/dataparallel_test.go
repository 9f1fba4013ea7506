package train

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

	// Per step the fixture's one bucket moves M microbatch PUTs and the
	// reducer's M GETs, whatever K: the reduced gradient stays in the
	// reducer's memory. Each frame is 11876 B, counted once as it lands
	// and once as it is read back. A gradient GET counts only under
	// BytesGrad: BytesVerified is the activation frames' figure, and a
	// data-parallel run offloads none.
	steps := uint64(dpCfg(t).Epochs * dpCfg(t).BatchesPerEpoch)
	traffic := func(label string, s transport.Snapshot) {
		t.Helper()
		if want := steps * M; s.GradPuts != want || s.GradGets != want {
			t.Fatalf("%s: grad puts %d, gets %d; want %d each", label, s.GradPuts, s.GradGets, want)
		}
		if s.BytesVerified != 0 || s.BytesGrad != 380032 {
			t.Fatalf("%s: bytes verified %d, grad %d; want 0 and 380032", label, s.BytesVerified, s.BytesGrad)
		}
	}

	// In-process transport: K=1 is the reference trajectory.
	ref, refSnap, refModel := dpRun(t, 1500, DPOptions{Replicas: 1, Microbatches: M})
	traffic("local K=1", refSnap)
	for _, K := range []int{2, 4} {
		rep, snap, m := dpRun(t, 1500, DPOptions{Replicas: K, Microbatches: M})
		sameEpochs(t, ref, rep, "local K")
		sameWeights(t, refModel, m, "local K")
		traffic(fmt.Sprintf("local K=%d", K), snap)
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
			DQT: quant.OptL(), StoreDial: dial,
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
	traffic("netstore", netSnap)
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

// TestDataParallelRunsShareAStore: two data-parallel runs of one seed,
// at 2 and 4 microbatches, exchange gradients through one store at the
// same time. Their step, slot and chunk numbers coincide, so only the
// tag each run draws keeps their keys apart: each must train the weights
// it trains alone, and leave the store empty.
func TestDataParallelRunsShareAStore(t *testing.T) {
	cfg := dpCfg(t)
	cfg.Epochs, cfg.BatchesPerEpoch = 8, 1
	run := func(M int, dp DPOptions) (string, error) {
		newModel, _, ds := dpFixture(1500)
		dp.Replicas, dp.Microbatches = 2, M
		rep, _, err := ClassifierDataParallel(newModel, ds, cfg, dp)
		return rep.WeightsDigest, err
	}
	micro := []int{2, 4}
	solo := make([]string, len(micro))
	for i, M := range micro {
		var err error
		if solo[i], err = run(M, DPOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if solo[0] == solo[1] {
		t.Fatal("2 and 4 microbatches train the same weights: a swapped gradient would go unseen")
	}

	// An epoch is one step, and each run waits at its epoch ends for the
	// other's: the two exchange the same step's gradients at once.
	srv, dial := startStore(t)
	step := newLockstep(len(micro))
	got := make([]string, len(micro))
	errs := make([]error, len(micro))
	var wg sync.WaitGroup
	for i, M := range micro {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer step.leave()
			got[i], errs[i] = run(M, DPOptions{StoreDial: dial, EpochEnd: func(EpochStats) { step.wait() }})
		}()
	}
	wg.Wait()
	for i, M := range micro {
		if errs[i] != nil {
			t.Fatalf("M=%d beside another run: %v", M, errs[i])
		}
		if got[i] != solo[i] {
			t.Errorf("M=%d beside another run: weights %s, alone %s", M, got[i], solo[i])
		}
	}
	if n := srv.Entries(); n != 0 {
		t.Fatalf("%d entries left on the server", n)
	}
}

// lockstep is a reusable barrier: wait returns once every party still
// in has called it, and a party that leaves stops being waited for.
type lockstep struct {
	mu      sync.Mutex
	parties int
	arrived int
	release chan struct{}
}

func newLockstep(parties int) *lockstep {
	return &lockstep{parties: parties, release: make(chan struct{})}
}

func (l *lockstep) wait() {
	l.mu.Lock()
	l.arrived++
	ch := l.release
	l.open()
	l.mu.Unlock()
	<-ch
}

func (l *lockstep) leave() {
	l.mu.Lock()
	l.parties--
	l.open()
	l.mu.Unlock()
}

// open releases the waiting parties once all that are in have arrived.
func (l *lockstep) open() {
	if l.arrived > 0 && l.arrived >= l.parties {
		close(l.release)
		l.arrived, l.release = 0, make(chan struct{})
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
		{"slots", dpCfg(t), DPOptions{Microbatches: transport.GradMaxSlots + 1}, "4096 slots"},
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

// TestDataParallelDeadStoreFailsTyped: against a store that refuses
// every connection, the step fails with the typed verdict of the first
// PUT in the reducer's fixed order (chunk descending, microbatch
// ascending; the fixture's gradient is one bucket), within its budget,
// and returns only once every PUT it issued has resolved: no handle and
// no goroutine outlives the run.
func TestDataParallelDeadStoreFailsTyped(t *testing.T) {
	newModel, _, ds := dpFixture(1800)
	cfg := dpCfg(t)
	before := runtime.NumGoroutine()
	refuse := func() (net.Conn, error) { return nil, errors.New("connection refused") }
	start := time.Now()
	_, snap, err := ClassifierDataParallel(newModel, ds, cfg, DPOptions{
		Replicas: 2, Microbatches: 2, StoreDial: refuse, StoreTimeout: 200 * time.Millisecond,
	})
	if !errors.Is(err, transport.ErrStoreUnavailable) || !strings.Contains(err.Error(), "grad put step=0 slot=0 chunk=0") {
		t.Fatalf("want microbatch 0's PUT to fail typed, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("a dead store took %v to fail the step", elapsed)
	}
	// A terminal failure counts as corrupted but not retried: one per
	// PUT means both microbatches' PUTs reached their verdict.
	if got := snap.Corrupted - snap.Retried; got != 2 {
		t.Fatalf("%d PUTs reached a verdict, want 2: %+v", got, snap)
	}
	if snap.GradPuts != 0 {
		t.Fatalf("%d gradient puts landed on a dead store", snap.GradPuts)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestDataParallelFailedStepLeavesNoChunks: a step that fails after its
// microbatch chunks have landed deletes them on the way out, so a shared
// store keeps nothing of the failed run. Microbatch 1's chunk (the
// fixture's gradient is one bucket) is lost when the M-th PUT is
// acknowledged: the Latency hook fires before that PUT's handle
// resolves, and the reducer GETs microbatch 1 only after every PUT up to
// it has resolved, so the GET always finds the chunk gone.
func TestDataParallelFailedStepLeavesNoChunks(t *testing.T) {
	const M = 2
	newModel, _, ds := dpFixture(1900)
	srv, dial := startStore(t)
	slotMask := transport.GradKey(0, 0, transport.GradMaxSlots-1, 0)
	var puts atomic.Int64
	_, _, err := ClassifierDataParallel(newModel, ds, dpCfg(t), DPOptions{
		Replicas: 2, Microbatches: M, SerialExchange: true, StoreDial: dial,
		ClientHook: func(c *transport.NetClient) {
			c.Latency = func(op uint8, _ time.Duration) {
				if op == transport.OpPut && puts.Add(1) == M {
					srv.Lose(func(key uint64) bool { return key&slotMask == transport.GradKey(0, 0, 1, 0) })
				}
			}
		},
	})
	if !errors.Is(err, transport.ErrNotFound) || !strings.Contains(err.Error(), "grad get step=0 slot=1 chunk=0") {
		t.Fatalf("want microbatch 1's GET to find its chunk gone, got %v", err)
	}
	if n := srv.Entries(); n != 0 {
		t.Fatalf("%d entries left on the server by the failed step", n)
	}
}
