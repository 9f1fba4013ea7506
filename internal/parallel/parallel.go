// Package parallel is the repo's shared worker-pool layer: a chunked
// parallel-for over index ranges, mirroring in software the paper's
// multi-CDU hardware that processes independent 8×8 blocks round-robin
// (§V). Every hot loop in internal/nn and the compression pipeline runs
// through For, so one knob — SetWorkers or the JPEGACT_WORKERS
// environment variable — tunes the whole system.
//
// Determinism contract: For only controls *which goroutine* executes a
// chunk, never the per-index work order inside a chunk. Callers that
// write disjoint output regions per index therefore produce byte- and
// bit-identical results at any worker count, which the compression
// codec requires (a stream encoded with 8 workers must decode against
// one encoded with 1).
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable that overrides the default
// worker count (GOMAXPROCS).
const EnvWorkers = "JPEGACT_WORKERS"

var workers atomic.Int64

func init() {
	workers.Store(int64(defaultWorkers()))
}

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	return n
}

// Workers returns the current worker count.
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the global worker count and returns the previous
// value. n <= 0 restores the default (JPEGACT_WORKERS or GOMAXPROCS).
func SetWorkers(n int) int {
	if n <= 0 {
		n = defaultWorkers()
	}
	return int(workers.Swap(int64(n)))
}

// Grain returns the number of items per chunk so that one chunk carries
// at least minWork units of work, given perItem units per item. Use it
// to keep goroutine overhead negligible against the loop body.
func Grain(perItem, minWork int) int {
	if perItem <= 0 {
		perItem = 1
	}
	g := minWork / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// For splits [0, n) into chunks of grain indices (the last chunk may be
// short) and runs fn over every chunk, using up to Workers() goroutines
// (the caller's goroutine is one of them). It returns when all chunks
// are done. fn must be safe to run concurrently on disjoint ranges.
//
// Chunk boundaries depend only on n and grain — never on the worker
// count — and with a single worker (or a single chunk) fn runs inline
// as fn(0, n), so the serial and parallel paths execute the same code.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	chunks := (n + grain - 1) / grain
	if w <= 1 || chunks <= 1 {
		fn(0, n)
		return
	}
	if w > chunks {
		w = chunks
	}
	// One heap object for the shared state and one closure that every
	// goroutine, the caller's included, runs as is: two allocations per
	// call however many workers join.
	var st struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	work := func() {
		defer st.wg.Done()
		for {
			c := int(st.next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	st.wg.Add(w)
	for i := 0; i < w-1; i++ {
		go work()
	}
	work()
	st.wg.Wait()
}
