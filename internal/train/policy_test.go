package train

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/models"
	"jpegact/internal/offload"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// TestPolicyMatrix is the unification's acceptance test: the step body
// takes an activation policy and a gradient policy, and the two compose.
// Within every gradient row — local, all-reduce K=2 overlapped, K=2 with
// the serial exchange, K=4 over a networked store — the round trip of a
// method (the JPEG-ACT/OptL method's codecs, as Classifier runs them) and
// the offload store's own JPEG-ACT engine (clean channel) must land on
// the same weights and epoch statistics, bit
// for bit, and DP × offload falls out of the composition. Every offload
// cell must also have moved real traffic and drained it.
//
// roundTripDigests pins each row's round-trip weights digest, recorded
// while the round trip still ran in place through compress.Method rather
// than through an engine: the engine must land on it.
var roundTripDigests = map[string]string{
	"local":                 "e8a34f024087f9bf017ba7c4b45068acbe57191c9d148ef5838931bd91b2f1b8",
	"allreduce-K2":          "1c2d238c27deced68bb37df2317771d8c7ba171a016c985eab653b29d6046d5f",
	"allreduce-K2-serial":   "1c2d238c27deced68bb37df2317771d8c7ba171a016c985eab653b29d6046d5f",
	"allreduce-K4-netstore": "dff2aef0d4291035ff5419fd9d2dfbb7de229cf03ae8be89d059fa86b38951b4",
}

func TestPolicyMatrix(t *testing.T) {
	const seed = 1800
	atWorkers(t, 2)
	cfg := Config{Epochs: 2, BatchesPerEpoch: 2, BatchSize: 4, LR: 0.05, Seed: 78}
	roundTrip := func() compress.Method { return compress.NewJPEGAct(quant.Fixed(quant.OptL())) }
	activations := []string{"round-trip", "offload"}
	pinned := func(t *testing.T, row string, rep Report) {
		t.Helper()
		if want := roundTripDigests[row]; rep.WeightsDigest != want {
			t.Fatalf("%s round-trip: weights digest %s, pinned %s", row, rep.WeightsDigest, want)
		}
	}
	drained := func(label string, s offload.Stats) {
		t.Helper()
		if s.Offloaded == 0 || s.Offloaded != s.Restored {
			t.Fatalf("%s: offloaded %d, restored %d", label, s.Offloaded, s.Restored)
		}
	}

	t.Run("local", func(t *testing.T) {
		var ref Report
		var refModel *models.Model
		for _, act := range activations {
			m, ds := faultModel(seed)
			var rep Report
			if act == "round-trip" {
				c := cfg
				c.Method = roundTrip()
				rep = Classifier(m, ds, c)
				pinned(t, "local", rep)
				ref, refModel = rep, m
			} else {
				var stats offload.Stats
				var err error
				rep, stats, err = ClassifierOffloaded(m, ds, cfg, OffloadOptions{})
				if err != nil {
					t.Fatal(err)
				}
				drained(act, stats)
			}
			if rep.Diverged || len(rep.Epochs) != cfg.Epochs {
				t.Fatalf("%s: diverged=%v after %d epochs", act, rep.Diverged, len(rep.Epochs))
			}
			sameEpochs(t, ref, rep, act)
			sameWeights(t, refModel, m, act)
		}
	})

	rows := []struct {
		name string
		dp   DPOptions
		net  bool
	}{
		{"allreduce-K2", DPOptions{Replicas: 2, Microbatches: 2, BucketBytes: 4 << 10}, false},
		{"allreduce-K2-serial", DPOptions{Replicas: 2, Microbatches: 2, BucketBytes: 4 << 10, SerialExchange: true}, false},
		{"allreduce-K4-netstore", DPOptions{Replicas: 4, Microbatches: 4, BucketBytes: 2 << 10}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dp := row.dp
			var dial transport.Dialer
			if row.net {
				// One server carries the gradient exchange and every
				// replica's activation traffic at once.
				srv, d := startStore(t)
				dial, dp.StoreDial = d, d
				defer func() {
					if n := srv.Entries(); n != 0 {
						t.Fatalf("%d entries leaked on the server", n)
					}
				}()
			}
			var ref Report
			var refModel *models.Model
			for _, act := range activations {
				var stores []*offload.Store
				newModel, lead, ds := dpFixture(seed)
				rep, snap, err := dataParallel(newModel, ds, cfg, dp, func(k int, p *pass) {
					s := offload.NewStore(quant.OptL())
					if act == "round-trip" {
						s.Codec = codec.For(roundTrip(), 0)
					}
					if row.net {
						s.Transport = transport.NewNetClient(dial, s.Counters())
						s.KeyBase = uint64(k+1) << 32
					}
					eng := offload.NewEngine(s, offload.EngineConfig{})
					t.Cleanup(func() {
						eng.Close()
						s.Close()
					})
					stores = append(stores, s)
					p.eng = eng
				})
				if err != nil {
					t.Fatalf("%s: %v", act, err)
				}
				if rep.Diverged || len(rep.Epochs) != cfg.Epochs {
					t.Fatalf("%s: diverged=%v after %d epochs", act, rep.Diverged, len(rep.Epochs))
				}
				if snap.GradPuts == 0 || snap.GradGets == 0 {
					t.Fatalf("%s: no gradient exchange: %+v", act, snap)
				}
				if act == "round-trip" {
					pinned(t, row.name, rep)
					ref, refModel = rep, lead()
					if rep.FinalRatio <= 1 {
						t.Fatalf("round-trip ratio %v: the replicas' passes did not compress", rep.FinalRatio)
					}
					continue
				}
				sameEpochs(t, ref, rep, act)
				sameWeights(t, refModel, lead(), act)
				if len(stores) != dp.Replicas {
					t.Fatalf("%s: %d stores for %d replicas", act, len(stores), dp.Replicas)
				}
				for k, s := range stores {
					drained(fmt.Sprintf("%s replica %d", act, k), s.Stats())
					if n := s.Stored(); n != 0 {
						t.Fatalf("%s replica %d: %d activations left in the store", act, k, n)
					}
				}
			}
		})
	}
}

// TestLoopDivergenceAndErrorExits pins the three early exits of the
// shared epoch loop, which the four former copies handled four slightly
// different ways: a non-finite step loss sets Diverged without recording
// the epoch, a NaN validation output records it first, and a step error
// returns the epochs completed so far.
func TestLoopDivergenceAndErrorExits(t *testing.T) {
	boom := errors.New("step failed")
	finite := tensor.New(1, 1, 1, 2)
	nan := tensor.New(1, 1, 1, 2)
	nan.Data[1] = float32(math.NaN())
	for _, tc := range []struct {
		name       string
		stepLoss   float64 // the loss of epoch 1's first step
		stepErr    error   // ... or its error
		valOut     *tensor.Tensor
		wantErr    error
		wantEpochs int
		wantDiv    bool
	}{
		{"nan-loss", math.NaN(), nil, finite, nil, 1, true},
		{"inf-loss", math.Inf(1), nil, finite, nil, 1, true},
		{"nan-validation", 1, nil, nan, nil, 1, true},
		{"step-error", 1, boom, finite, boom, 1, false},
		{"clean", 1, nil, finite, nil, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hooked []int
			l := loop{
				cfg: Config{Epochs: 3, BatchesPerEpoch: 2},
				step: func(epoch, b int) (stepResult, error) {
					if epoch == 1 && b == 0 {
						return stepResult{loss: tc.stepLoss}, tc.stepErr
					}
					return stepResult{loss: 1}, nil
				},
				epochEnd: func(epoch int) { hooked = append(hooked, epoch) },
				validate: func() (float64, *tensor.Tensor) { return 0.5, tc.valOut },
			}
			var rep Report
			if err := l.run(&rep); err != tc.wantErr {
				t.Fatalf("error %v, want %v", err, tc.wantErr)
			}
			if rep.Diverged != tc.wantDiv || len(rep.Epochs) != tc.wantEpochs {
				t.Fatalf("diverged=%v with %d epochs, want %v with %d", rep.Diverged, len(rep.Epochs), tc.wantDiv, tc.wantEpochs)
			}
			if len(hooked) != tc.wantEpochs {
				t.Fatalf("epoch hook ran for %v, want %d epochs", hooked, tc.wantEpochs)
			}
		})
	}

	// The same exit through each real trainer: an infinite learning rate
	// destroys the weights in step 0, so step 1's loss is NaN — before
	// the first epoch is complete.
	cfg := Config{Epochs: 2, BatchesPerEpoch: 2, BatchSize: 4, LR: math.Inf(1)}
	check := func(name string, rep Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Diverged || len(rep.Epochs) != 0 {
			t.Fatalf("%s: diverged=%v with %d epochs, want true with 0", name, rep.Diverged, len(rep.Epochs))
		}
	}
	m, ds := faultModel(1900)
	check("Classifier", Classifier(m, ds, cfg), nil)
	m, ds = faultModel(1900)
	rep, stats, err := ClassifierOffloaded(m, ds, cfg, OffloadOptions{})
	check("ClassifierOffloaded", rep, err)
	if stats.Offloaded == 0 || stats.Offloaded != stats.Restored {
		t.Fatalf("ClassifierOffloaded: diverged run left the store unbalanced: %+v", stats)
	}
	newModel, _, dds := dpFixture(1900)
	rep, _, err = ClassifierDataParallel(newModel, dds, cfg, DPOptions{Replicas: 2, Microbatches: 2})
	check("ClassifierDataParallel", rep, err)
}
