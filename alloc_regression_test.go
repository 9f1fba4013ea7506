package jpegact

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"jpegact/internal/coding"
	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/parallel"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// TestCompressActivationAllocs guards the allocation budget of the hot
// compression path. The seed implementation allocated 4123 objects per
// CompressActivation call (per-block DCT temporaries escaping through an
// indirect transform call, a flat ZVC copy, a codes tensor, fresh padded
// planes); per-block stack buffers and devirtualized DCT kernels brought
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

	// Warm the ZVC windows' sync.Pool so the steady state is measured.
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
// decode, which DecodeCoefficients runs on its own: a decode costs its
// one block array and its bookkeeping; the budget fails loudly if
// per-block temporaries ever start escaping.
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

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := p.DecodeCoefficients(f); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 16
	if allocs > maxAllocs {
		t.Fatalf("DecodeCoefficients allocates %.0f objects/op, budget %d", allocs, maxAllocs)
	}
}

// TestCodecEncodeDecodeAllocs budgets what the offload engine actually
// calls — codec.Pipeline.Encode and Decode — in both directions and for
// all three codecs, on the benchmark's (8,16,32,32) tensor at two
// workers. What must be fresh per call is the payload on the way out
// and the tensor on the way back: encode codes one block or one run at
// a time through a stack buffer into the ZVC coder's pooled windows,
// decode writes straight from the frame bytes into the tensor, and the
// ZVC coders size their stream exactly instead of growing it. The
// byte budget is that fresh result plus 16 KiB, the object budget 24, so
// per-call scratch cannot quietly come back. (Before the encode scratch
// was pooled: encode 787 KB for a 160 KB ZVC payload, decode 658 KB for
// a 524 KB tensor.) The cold case empties the pools first, as a
// collection does mid-training: a JPEG-ACT or SFPR+ZVC encode may then
// draw its ZVC windows afresh as well, and nothing else (a pooled block
// array that the collection had dropped cost 128 KiB more).
func TestCodecEncodeDecodeAllocs(t *testing.T) {
	const slackBytes, maxObjects = 16 << 10, 24
	defer steadyState()()

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
		encode := func() {
			if enc, err = p.Encode(kind, x); err != nil {
				t.Fatal(err)
			}
		}
		bytes, objects := medianAllocs(encode)
		fresh := len(enc.Frame.Payload) + len(enc.Mask)
		if raceBuild() {
			// The windows' sync.Pool drops a quarter of its Puts under the
			// race detector, and a Put to one P's private slot is lost to
			// a Get on another: the median warm encode drew fresh windows
			// in 4 of 40 runs. The cold budget below holds there too.
			t.Logf("%v encode: %.0f B per op; its warm budget is not held under -race", kind, bytes)
		} else if bytes > float64(fresh+slackBytes) || objects > maxObjects {
			t.Errorf("%v encode: %.0f B and %.0f objects per op; budget %d B (payload and mask %d + %d) and %d objects",
				kind, bytes, objects, fresh+slackBytes, fresh, slackBytes, maxObjects)
		}
		if kind != compress.KindReLUToOther { // BRC codes through no window
			// x has no pad fringe, so JPEG-ACT codes as many values as ZVC.
			windows := (x.Elems() + coding.ZVCShard - 1) / coding.ZVCShard * (9 * coding.ZVCShard / 8)
			cold := ^uint64(0)
			for range 3 {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.GC() // the second empties the pools' victim caches
				runtime.ReadMemStats(&before)
				encode()
				runtime.ReadMemStats(&after)
				cold = min(cold, after.TotalAlloc-before.TotalAlloc)
			}
			if budget := fresh + windows + slackBytes; cold > uint64(budget) {
				t.Errorf("%v encode on emptied pools: %d B; budget %d B (payload %d + windows %d + %d)",
					kind, cold, budget, fresh, windows, slackBytes)
			}
			t.Logf("%v encode on emptied pools: %d B", kind, cold)
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

// raceBuild reports whether the test binary has the race detector.
func raceBuild() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// steadyState prepares a test that budgets recycled scratch at two
// workers and returns what undoes it. nn's scratch list, the step arena
// and the netstore free list keep what is put back under the race
// detector too; the ZVC windows' sync.Pool does not (see
// TestCodecEncodeDecodeAllocs), which a per-round budget absorbs.
func steadyState() (restore func()) {
	prev := parallel.SetWorkers(2)
	// A collection in the middle of a measurement would empty the
	// sync.Pool and charge its refill to one unlucky run.
	gc := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(gc)
		parallel.SetWorkers(prev)
	}
}

// medianAllocs is the median of single runs: the ZVC windows' sync.Pool
// is per-P, so a run that starts on a P whose slot is still empty pays
// one refill, and the steady state is what a budget is about.
func medianAllocs(f func()) (bytes, objects float64) {
	const runs = 15
	f() // warm the pool
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
// structure) and a scratch draw an unseen interleaving of the two workers
// misses only ever add to what the code makes.
func TestConvStepAllocs(t *testing.T) {
	// The floors must be equal. Under the race detector, with another
	// package's race tests on the CPUs, they differed by one object,
	// either way round, in 3 of 18 runs; the scratch list adds no object
	// once warm, so the extra one is the runtime's.
	if raceBuild() {
		t.Skip("the step floors are timing-bound under -race")
	}
	defer steadyState()()
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
// constant per step: 12.1 MB and 4,200 objects at two workers with the
// collector off. Without the arena a round allocated 229 MB, 28.7 MB a
// step, and 4,290 objects; validation's chunks add about 130 objects per
// extra chunk forward, and the release rules add none.
func TestTrainRoundAllocs(t *testing.T) {
	defer steadyState()()
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

// TestTrainArenaHighWater pins the step arena's high-water a train_plain
// run reports: the most bytes of layer outputs, saved activations and
// gradients the bench-scale ResNet18 holds at once, at one worker and at
// two. Only the step's goroutine draws from the arena on the plain path,
// so the figure is exact.
func TestTrainArenaHighWater(t *testing.T) {
	const want = 5_243_136
	for _, workers := range []int{1, 2} {
		prev := parallel.SetWorkers(workers)
		rep := TrainClassifier("ResNet18", ModelScale{Width: 16, Blocks: 1, H: 32, W: 32}, TrainConfig{
			Method: Baseline(), Epochs: 1, BatchesPerEpoch: 2, BatchSize: 8,
		}, 42)
		parallel.SetWorkers(prev)
		if rep.ArenaHighWater != want {
			t.Errorf("at %d workers the step arena's high-water is %d B, want %d B", workers, rep.ArenaHighWater, want)
		}
	}
}

// TestOffloadRoundAllocs pins what a clean offloaded round allocates: the
// train_plain round of TestTrainRoundAllocs through the offload engine
// over a clean in-process channel, as train_offload_dma runs it without
// the simulated DMA sleeps. Each restore decodes into a buffer drawn from
// the step arena its commit released the tensor to, and the codec writes
// it straight from the frame bytes, so what a round adds over the plain
// one is mostly the frames themselves and the engine's bookkeeping:
// 28.0 MB (3.50 MB a step) and 8,500 objects at two workers with the
// collector off. When every restore decoded into a fresh heap tensor,
// through a pooled code plane or block array, a round allocated 59.8 MB
// (7.48 MB a step) and 10,260 objects.
func TestOffloadRoundAllocs(t *testing.T) {
	defer steadyState()()
	const steps, maxBytesPerStep, maxObjects = 8, 1 << 22, 10500 // 4 MiB
	bytes, objects := ^uint64(0), ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := TrainClassifierOffloaded("ResNet18", ModelScale{Width: 16, Blocks: 1, H: 32, W: 32}, TrainConfig{
			Epochs: 1, BatchesPerEpoch: steps, BatchSize: 8,
		}, OffloadTrainOptions{DQT: OptL()}, 42)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	if bytes/steps > maxBytesPerStep || objects > maxObjects {
		t.Errorf("an offloaded round allocates %d B (%d B a step) and %d objects; budget %d B a step and %d objects",
			bytes, bytes/steps, objects, maxBytesPerStep, maxObjects)
	}
	t.Logf("an offloaded round: %d B (%d B a step), %d objects", bytes, bytes/steps, objects)
}

// TestStoreCycleAllocs pins what the activation-store server allocates
// for one PUT→GET→DELETE cycle of a 64 KiB frame in its steady state:
// small objects (the entry, the frame check, the reply header), never the
// frame. The PUT reads into a buffer the DELETE before it handed back to
// the server's free list; before the free list every PUT allocated and
// zeroed its body, about 64 KiB a cycle. One connection's reader and
// writer serve a stop-and-wait client on an in-memory net.Conn (no
// socket): a cycle's requests are readable only once the last cycle's
// replies are written, so the reader never runs ahead of the writer. A
// cycle's cost is the difference between two runs' totals over their
// difference in cycles, so the connection's own set-up cancels out; each
// total is the floor of three runs, as other goroutines only ever add.
func TestStoreCycleAllocs(t *testing.T) {
	const maxBytesPerCycle = 4 << 10
	grad := tensor.New(1, 1, 1, 1<<14) // 64 KiB of float32
	grad.FillNormal(tensor.NewRNG(4), 0, 0.01)
	enc, err := codec.Pipeline{}.EncodeGradient(frame.CodecGradRaw, grad)
	if err != nil {
		t.Fatal(err)
	}
	fr := frame.EncodeFrame(enc.Frame)
	var cycle bytes.Buffer
	transport.WriteRequest(&cycle, transport.OpPut, 1, fr)
	transport.WriteRequest(&cycle, transport.OpGet, 1, nil)
	transport.WriteRequest(&cycle, transport.OpDelete, 1, nil)
	const replyHeader = 8
	replies := 3*replyHeader + len(fr)

	srv := NewActivationStore(ActivationStoreConfig{})
	serve := func(cycles int) int64 {
		least := int64(-1)
		for range 3 {
			conn := &memConn{cycle: cycle.Bytes(), cycles: cycles, replies: replies,
				turn: make(chan struct{}, 1), closed: make(chan struct{})}
			conn.turn <- struct{}{}
			ln := &oneConnListener{conn: conn, closed: make(chan struct{})}
			served := make(chan struct{})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			go func() {
				srv.Serve(ln)
				close(served)
			}()
			<-conn.closed
			ln.Close()
			<-served
			runtime.ReadMemStats(&after)
			if conn.cycles != 0 || conn.wrote != 0 {
				t.Fatalf("%d cycles unread, %d reply bytes short of a cycle", conn.cycles, conn.wrote)
			}
			if n := int64(after.TotalAlloc - before.TotalAlloc); least < 0 || n < least {
				least = n
			}
		}
		return least
	}
	serve(32) // fill the free list
	perCycle := (serve(96) - serve(32)) / 64
	if perCycle >= maxBytesPerCycle {
		t.Errorf("a PUT→GET→DELETE cycle of a %d B frame allocates %d B; budget %d B", len(enc.Frame.Payload), perCycle, maxBytesPerCycle)
	}
	t.Logf("a PUT→GET→DELETE cycle of a %d B frame: %d B", len(enc.Frame.Payload), perCycle)
}

// memConn is a stop-and-wait client on an in-memory net.Conn: it offers
// cycle's bytes cycles times, each once the previous cycle's replies
// (replies bytes) are written, and the server's Close closes closed.
type memConn struct {
	net.Conn
	cycle   []byte
	unread  []byte
	cycles  int
	replies int
	wrote   int           // reply bytes of the cycle in progress
	turn    chan struct{} // a token: the next cycle may be read
	once    sync.Once
	closed  chan struct{}
}

func (c *memConn) Read(b []byte) (int, error) {
	if len(c.unread) == 0 {
		if c.cycles == 0 {
			return 0, io.EOF
		}
		<-c.turn
		c.unread, c.cycles = c.cycle, c.cycles-1
	}
	n := copy(b, c.unread)
	c.unread = c.unread[n:]
	return n, nil
}

func (c *memConn) Write(b []byte) (int, error) {
	if c.wrote += len(b); c.wrote >= c.replies {
		c.wrote -= c.replies
		c.turn <- struct{}{}
	}
	return len(b), nil
}

func (c *memConn) Close() error { c.once.Do(func() { close(c.closed) }); return nil }

// oneConnListener accepts conn once, then blocks until closed.
type oneConnListener struct {
	conn     net.Conn
	accepted bool
	once     sync.Once
	closed   chan struct{}
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	if !l.accepted {
		l.accepted = true
		return l.conn, nil
	}
	<-l.closed
	return nil, errors.New("listener closed")
}
func (l *oneConnListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *oneConnListener) Addr() net.Addr { return nil }
