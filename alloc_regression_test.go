package jpegact

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/codec"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// TestCompressActivationAllocs guards the allocation budget of the hot
// compression path. The seed implementation allocated 4123 objects per
// CompressActivation call (per-block DCT temporaries escaping through an
// indirect transform call, a flat ZVC copy, a codes tensor, fresh padded
// planes); pooled scratch buffers and devirtualized DCT kernels brought
// that down to ~23. The bound leaves slack for benign churn but fails
// loudly if per-block allocations ever creep back in.
func TestCompressActivationAllocs(t *testing.T) {
	r := tensor.NewRNG(1)
	x := data.ActivationTensor(r, 4, 16, 32, 32, 0.5, 1.0)
	m := JPEGACT()

	// Pin to one worker: goroutine spawns would otherwise count as
	// allocations and vary with GOMAXPROCS.
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	// Warm the sync.Pools so the steady state is measured.
	CompressActivation(m, x, KindConv, 10)

	allocs := testing.AllocsPerRun(10, func() {
		CompressActivation(m, x, KindConv, 10)
	})
	const maxAllocs = 200 // seed: 4123; current: ~23
	if allocs > maxAllocs {
		t.Fatalf("CompressActivation allocates %.0f objects/op, budget %d (seed was 4123)",
			allocs, maxAllocs)
	}
}

// TestGradExchangeAllocs guards the data-parallel gradient exchange hot
// path: one encode+decode round trip per chunk per microbatch per step,
// driven exactly as the trainer drives it — a pooled staging tensor
// into EncodeGradient, the frame across the wire codec, and
// DecodeGradientInto a pooled destination. The only per-op allocations
// allowed are the wire artifacts that must be fresh (the payload and
// frame the transport retains for resends, the decoded frame's slices)
// — a small constant per chunk, never per element. The budget fails
// loudly if a fresh tensor or staging copy ever sneaks back in.
func TestGradExchangeAllocs(t *testing.T) {
	const n = 1 << 14 // one quarter-size chunk: enough to expose per-element churn
	r := tensor.NewRNG(3)
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = float32(r.Norm()) * 0.01
	}

	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	p := codec.Pipeline{}
	staging := &tensor.Tensor{Shape: tensor.Shape{N: 1, C: 1, H: 1, W: n}, Data: make([]float32, n)}
	dst := make([]float32, n)

	roundTrip := func() {
		copy(staging.Data, grad)
		enc, err := p.EncodeGradient(frame.CodecGradRaw, staging)
		if err != nil {
			t.Fatal(err)
		}
		wire := frame.EncodeFrame(enc.Frame)
		f, err := frame.DecodeFrame(wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.DecodeGradientInto(f, dst); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm any pools below the codec
	allocs := testing.AllocsPerRun(10, roundTrip)
	const maxAllocs = 24
	if allocs > maxAllocs {
		t.Fatalf("gradient chunk round trip allocates %.0f objects/op, budget %d", allocs, maxAllocs)
	}
}

// TestDecodeCoefficientsAllocs guards the block half of a JPEG-ACT
// decode, which DecodeCoefficients runs on its own: with the block
// storage drawn from the compress pool, a steady-state decode+release
// cycle costs only its bookkeeping; the budget fails loudly if per-block
// temporaries ever start escaping.
func TestDecodeCoefficientsAllocs(t *testing.T) {
	r := tensor.NewRNG(2)
	x := data.ActivationTensor(r, 2, 4, 16, 16, 0.5, 1.0)

	p := codec.New(quant.OptL())
	enc, err := p.Encode(compress.KindConv, x)
	if err != nil {
		t.Fatal(err)
	}
	f, err := frame.DecodeFrame(frame.EncodeFrame(enc.Frame))
	if err != nil {
		t.Fatal(err)
	}

	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	// Warm the plane/block pools so the steady state is measured.
	if pl, err := p.DecodeCoefficients(f); err != nil {
		t.Fatal(err)
	} else {
		pl.Release()
	}

	allocs := testing.AllocsPerRun(10, func() {
		pl, err := p.DecodeCoefficients(f)
		if err != nil {
			t.Fatal(err)
		}
		pl.Release()
	})
	const maxAllocs = 16
	if allocs > maxAllocs {
		t.Fatalf("DecodeCoefficients+Release allocates %.0f objects/op, budget %d",
			allocs, maxAllocs)
	}
}

// TestCodecEncodeDecodeAllocs budgets what the offload engine actually
// calls — codec.Pipeline.Encode and Decode — in both directions and for
// all three codecs, on the benchmark's (8,16,32,32) tensor at two
// workers. What must be fresh per call is the payload on the way out
// and the tensor on the way back; everything else (the SFPR code plane,
// quantized blocks, decoded blocks and codes) comes from pools, and the
// flat ZVC coder sizes its stream exactly instead of growing it. The
// byte budget is that fresh result plus 16 KiB, the object budget 24, so
// pooled scratch cannot quietly become a per-call make again. (Before
// the pools reached these paths: encode 787 KB for a 160 KB ZVC payload,
// decode 658 KB for a 524 KB tensor.)
func TestCodecEncodeDecodeAllocs(t *testing.T) {
	const slackBytes, maxObjects = 16 << 10, 24
	defer pooledSteadyState(t)()

	r := tensor.NewRNG(5)
	p := codec.New(quant.OptL())
	for _, kind := range []compress.Kind{compress.KindConv, compress.KindReLUToConv, compress.KindReLUToOther} {
		x := tensor.New(8, 16, 32, 32)
		for i := range x.Data {
			if v := float32(r.Norm()); kind == compress.KindConv || v > 0 {
				x.Data[i] = v
			}
		}
		var enc codec.Encoded
		var err error
		bytes, objects := medianAllocs(func() {
			if enc, err = p.Encode(kind, x); err != nil {
				t.Fatal(err)
			}
		})
		fresh := len(enc.Frame.Payload) + len(enc.Mask)
		if bytes > float64(fresh+slackBytes) || objects > maxObjects {
			t.Errorf("%v encode: %.0f B and %.0f objects per op; budget %d B (payload and mask %d + %d) and %d objects",
				kind, bytes, objects, fresh+slackBytes, fresh, slackBytes, maxObjects)
		}

		f, err := frame.DecodeFrame(frame.EncodeFrame(enc.Frame))
		if err != nil {
			t.Fatal(err)
		}
		var out *tensor.Tensor
		bytes, objects = medianAllocs(func() {
			if out, err = p.Decode(f); err != nil {
				t.Fatal(err)
			}
		})
		fresh = 0
		if out != nil { // BRC decodes to nothing: its mask never left
			fresh = out.Bytes()
		}
		if bytes > float64(fresh+slackBytes) || objects > maxObjects {
			t.Errorf("%v decode: %.0f B and %.0f objects per op; budget %d B (tensor %d + %d) and %d objects",
				kind, bytes, objects, fresh+slackBytes, fresh, slackBytes, maxObjects)
		}
		t.Logf("%v (%s): encode result %d B, decode result %d B", kind, f.Codec, len(enc.Frame.Payload)+len(enc.Mask), fresh)
	}
}

// pooledSteadyState prepares a test that budgets pooled scratch at two
// workers and returns what undoes it.
func pooledSteadyState(t *testing.T) (restore func()) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				// Under the race detector sync.Pool drops a quarter of
				// what is Put, on purpose; there is no steady state.
				t.Skip("pooled scratch is not steady under -race")
			}
		}
	}
	prev := parallel.SetWorkers(2)
	// A collection in the middle of a measurement would empty the pools
	// and charge their refill to one unlucky run.
	gc := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(gc)
		parallel.SetWorkers(prev)
	}
}

// medianAllocs is the median of single runs: a sync.Pool is per-P, so a
// run that starts on a P whose slot is still empty pays one refill, and
// the steady state is what a budget is about.
func medianAllocs(f func()) (bytes, objects float64) {
	const runs = 15
	f() // warm the pools
	var bs, os []float64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bs = append(bs, float64(after.TotalAlloc-before.TotalAlloc))
		os = append(os, float64(after.Mallocs-before.Mallocs))
	}
	slices.Sort(bs)
	slices.Sort(os)
	return bs[runs/2], os[runs/2]
}

// TestConvStepAllocs pins what one conv layer allocates per step to its
// results and one fork-join per pass: the same count at any batch size.
// (A walk of the batch that forks per element grows by 2-4 closures per
// element: 152 objects at N = 8, 582 at N = 32.) The count is the floor
// of many single steps: the runtime's own allocations (a goroutine
// structure, a pool refill) only ever add to what the code makes.
func TestConvStepAllocs(t *testing.T) {
	defer pooledSteadyState(t)()
	const maxObjects = 24
	var floors []uint64
	for _, n := range []int{8, 32} {
		conv := nn.NewConv2D("c", 16, 16, 3, nn.ConvOpts{Pad: 1}, tensor.NewRNG(1))
		in := &nn.ActRef{Kind: compress.KindConv, T: tensor.New(n, 16, 16, 16)}
		in.T.FillNormal(tensor.NewRNG(2), 0, 1)
		grad := tensor.New(n, 16, 16, 16)
		grad.FillNormal(tensor.NewRNG(3), 0, 1)
		floor := ^uint64(0)
		for range 20 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			conv.Forward(in, true)
			conv.Backward(grad)
			runtime.ReadMemStats(&after)
			floor = min(floor, after.Mallocs-before.Mallocs)
		}
		if floor > maxObjects {
			t.Errorf("conv forward+backward at N=%d allocates %d objects, budget %d", n, floor, maxObjects)
		}
		floors = append(floors, floor)
	}
	if floors[0] != floors[1] {
		t.Errorf("conv forward+backward allocates %d objects at N=8 and %d at N=32: it must not grow with the batch", floors[0], floors[1])
	}
}

// TestTrainRoundAllocs pins what a train_plain round of bash bench/run.sh
// allocates: ResNet18 at width 16 on 32×32 images, eight steps of batch 8,
// validation and model build included. The step arena serves every
// step's outputs and gradients from the buffers the first step drew, so a
// round allocates the model, the data, the arena's one fill and a small
// constant per step: 13.2 MB and 4,500 objects at two workers with the
// collector off. Without the arena a round allocated 229 MB, 28.7 MB a
// step, and 4,290 objects; validation's chunks add about 130 objects per
// extra chunk forward, and the release rules add none.
func TestTrainRoundAllocs(t *testing.T) {
	defer pooledSteadyState(t)()
	const steps, maxBytesPerStep, maxObjects = 8, 7 << 18, 4700 // 1.75 MiB
	bytes, objects := ^uint64(0), ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		TrainClassifier("ResNet18", ModelScale{Width: 16, Blocks: 1, H: 32, W: 32}, TrainConfig{
			Method: Baseline(), Epochs: 1, BatchesPerEpoch: steps, BatchSize: 8,
		}, 42)
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	if bytes/steps > maxBytesPerStep || objects > maxObjects {
		t.Errorf("a train_plain round allocates %d B (%d B a step) and %d objects; budget %d B a step and %d objects",
			bytes, bytes/steps, objects, maxBytesPerStep, maxObjects)
	}
	t.Logf("a train_plain round: %d B (%d B a step), %d objects", bytes, bytes/steps, objects)
}
