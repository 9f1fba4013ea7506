package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jpegact"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/tensor"
)

// sizes fixes the amount of work in one round of every workload and how
// many rounds a run times. They are the same on every commit; only the
// driver's -seconds replaces the two round counts by a duration. The full
// sizes are the ones the README records; smoke is the tiny configuration
// the tests run.
type sizes struct {
	Width, Blocks, HW int // model scale (ResNet18)
	Batch             int
	Batches           int // steps per facade round (train_plain, train_offload_*)
	DPSteps           int // steps per train_dp2_net round
	Microbatches      int
	BucketBytes       int
	WarmSteps         int // forward/backward steps before activations are captured
	CodecPasses       int // passes over the captured tensors per codec_stream round
	StoreIters        int // offload life cycles per client per store_mixed round
	ChanLatency       time.Duration
	ChanBytesPerSec   float64
	Probe             time.Duration // how long each direct-call layer probe samples
	Rounds            int           // timed rounds of the untraced pass
	TraceCycles       int           // cycles of the traced pass (13 cycles of 8 steps: >= 100 traced steps)
	// Setups is how often a workload is set up per run; setup_s is the
	// median. More than one because the first set-up of a process pays for
	// page faults and heap growth the later ones do not.
	Setups int
}

var fullSizes = sizes{
	Width: 16, Blocks: 1, HW: 32, Batch: 8,
	Batches: 8, DPSteps: 4, Microbatches: 4, BucketBytes: 16 << 10,
	WarmSteps: 4, CodecPasses: 12, StoreIters: 300,
	ChanLatency: 100 * time.Microsecond, ChanBytesPerSec: 0.1e9,
	Probe:  40 * time.Millisecond,
	Rounds: 12, TraceCycles: 13, Setups: 3,
}

var smokeSizes = sizes{
	Width: 4, Blocks: 1, HW: 16, Batch: 4,
	Batches: 2, DPSteps: 1, Microbatches: 2, BucketBytes: 1 << 10,
	WarmSteps: 1, CodecPasses: 1, StoreIters: 2,
	ChanLatency: 20 * time.Microsecond, ChanBytesPerSec: 1e9,
	Probe:  time.Millisecond,
	Rounds: minRounds, TraceCycles: 1, Setups: 2,
}

const (
	modelName = "ResNet18"
	classes   = 4 // the facade's buildClassifier constant
	learnRate = 0.05
	momentum  = 0.9
	// weightDecay is the product trainer's default (train.Config leaves 0
	// as 1e-4); the bench-owned loop must use the same value to land on
	// the facade's losses bit for bit.
	weightDecay = 1e-4
)

// config is what a workload is built from: the seed and the sizes.
type config struct {
	Seed uint64
	Sz   sizes
	Dir  string // scratch directory for unix sockets, inside the checkout
}

func (c config) scale() jpegact.ModelScale {
	return jpegact.ModelScale{Width: c.Sz.Width, Blocks: c.Sz.Blocks, H: c.Sz.HW, W: c.Sz.HW}
}

// trainCfg is one facade round: a single epoch of `batches` steps.
func (c config) trainCfg(batches int) jpegact.TrainConfig {
	return jpegact.TrainConfig{
		Method: jpegact.Baseline(), Epochs: 1, BatchesPerEpoch: batches,
		BatchSize: c.Sz.Batch, LR: learnRate, Momentum: momentum, Seed: c.Seed,
	}
}

// buildModel mirrors the facade's unexported buildClassifier, so the
// bench-owned step loop trains the very model and data stream a facade
// round does (the traced pass checks the two agree on the loss).
func (c config) buildModel() (*models.Model, *data.Classification) {
	m := models.ResNet18(c.scale(), classes, tensor.NewRNG(c.Seed))
	ds := data.NewClassification(data.ClassificationConfig{
		Classes: classes, Channels: 3, H: m.H, W: m.W, Noise: 0.4, Seed: c.Seed,
	})
	return m, ds
}

// simChannel is the bench-owned DMA model: every transfer sleeps a fixed
// setup latency plus bytes/bandwidth, so its cost is hidden exactly when
// another goroutine has compute to run. With a recorder attached each
// transfer is a span on the channel track.
type simChannel struct {
	latency time.Duration
	bps     float64
	rec     *recorder

	transfers atomic.Int64
	busyNS    atomic.Int64
	sendNS    atomic.Int64
	recvNS    atomic.Int64
}

func (c *simChannel) xfer(name string, n int, acc *atomic.Int64) {
	id := c.rec.async(name, trackChannel)
	t0 := time.Now()
	time.Sleep(c.latency + time.Duration(float64(n)/c.bps*float64(time.Second)))
	d := int64(time.Since(t0))
	c.rec.endAsync(id)
	c.transfers.Add(1)
	c.busyNS.Add(d)
	acc.Add(d)
}

func (c *simChannel) Send(b []byte) []byte {
	c.xfer("transport.channel_send", len(b), &c.sendNS)
	return b
}

func (c *simChannel) Recv(b []byte) []byte {
	c.xfer("transport.channel_recv", len(b), &c.recvNS)
	return b
}

func newSimChannel(sz sizes, rec *recorder) *simChannel {
	return &simChannel{latency: sz.ChanLatency, bps: sz.ChanBytesPerSec, rec: rec}
}

// storeServer is an in-process ActivationStoreServer on a unix socket in
// the scratch directory.
type storeServer struct {
	Srv  *jpegact.ActivationStoreServer
	Addr string
	path string
	done chan error
}

var sockSeq atomic.Int64

func startStore(dir string) (*storeServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Relative and short: a unix socket path is capped near 100 bytes and
	// the checkout may sit arbitrarily deep.
	path := filepath.Join(dir, fmt.Sprintf("s%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
	srv := jpegact.NewActivationStore(jpegact.ActivationStoreConfig{})
	ln, err := srv.Listen("unix:" + path)
	if err != nil {
		return nil, fmt.Errorf("start store on %s: %w", path, err)
	}
	s := &storeServer{Srv: srv, Addr: "unix:" + path, path: path, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop closes the server, waits for its accept loop and connection
// goroutines, and removes the socket file.
func (s *storeServer) stop() error {
	err := s.Srv.Close()
	if serr := <-s.done; err == nil {
		err = serr
	}
	os.Remove(s.path)
	return err
}

// connStats counts what crosses the wrapped connections.
type connStats struct {
	dials      atomic.Int64
	writeCalls atomic.Int64
	writeBytes atomic.Int64
	readBytes  atomic.Int64
	writeNS    atomic.Int64
}

// tracedConn wraps a net.Conn of the store dialer: writes are counted,
// timed and (with a recorder) recorded as spans on the connection track.
type tracedConn struct {
	net.Conn
	st  *connStats
	rec *recorder
}

func (c *tracedConn) Write(b []byte) (int, error) {
	id := c.rec.async("transport.conn_write", trackConn)
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.st.writeNS.Add(int64(time.Since(t0)))
	c.rec.endAsync(id)
	c.st.writeCalls.Add(1)
	c.st.writeBytes.Add(int64(n))
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.st.readBytes.Add(int64(n))
	return n, err
}

func traceDialer(d jpegact.StoreDialer, st *connStats, rec *recorder) jpegact.StoreDialer {
	return func() (net.Conn, error) {
		conn, err := d()
		if err != nil {
			return nil, err
		}
		st.dials.Add(1)
		return &tracedConn{Conn: conn, st: st, rec: rec}, nil
	}
}

// latencies collects per-op wire latencies from NetClient.Latency hooks
// (called from client reader goroutines, hence the lock).
type latencies struct {
	mu sync.Mutex
	us map[uint8][]float64
}

func (l *latencies) observe(op uint8, d time.Duration) {
	l.mu.Lock()
	if l.us == nil {
		l.us = map[uint8][]float64{}
	}
	l.us[op] = append(l.us[op], float64(d.Nanoseconds())/1e3)
	l.mu.Unlock()
}

func (l *latencies) of(ops ...uint8) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, op := range ops {
		out = append(out, l.us[op]...)
	}
	return out
}

// procSample is a point-in-time reading of the process's resource use.
type procSample struct {
	wall      time.Time
	cpu       time.Duration // user + system
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	gcPauseNS uint64
}

func readProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		wall:      time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		allocB:    ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPauseNS: ms.PauseTotalNs,
	}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS returns the previous workload's heap to the OS and asks
// the kernel to restart the high-water mark, so that in a run of several
// workloads each reports its own peak. Best effort: where the kernel
// refuses, later workloads report the running maximum. (A single-workload
// run, the driver's form, never calls it.)
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// settleGoroutines waits briefly for goroutines that exit asynchronously
// after a Close (client pumps, server connection handlers) and returns
// the count.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
