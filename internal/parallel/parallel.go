// Package parallel is the repo's shared worker layer: a chunked
// parallel-for over index ranges, mirroring in software the paper's
// multi-CDU hardware that processes independent 8×8 blocks round-robin
// (§V), and a bounded task pool for pipelined work. Every hot loop in
// internal/nn and the compression pipeline runs through For, and the
// offload engine's encodes and decodes run as Pool tasks, so one knob —
// SetWorkers or the JPEGACT_WORKERS environment variable — tunes the
// whole system.
//
// Both run on one set of at most Workers() helper goroutines. A helper
// that runs out of work stays warm for a bounded window (warm, a few
// thread wake latencies): it keeps looking for the next For chunk or
// pool task instead of parking, so back-to-back fork-joins and a pool
// fed from the forward pass start without waking a thread. A helper
// takes a For call's chunks before any queued pool task, and exits once
// a whole window passes without work, so no goroutine outlives it.
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
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
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
// to keep the fork-join overhead negligible against the loop body.
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

// warm is how long a helper that has run out of work keeps looking for
// more before it exits: a few wake latencies of a parked thread (≈ 0.1
// ms on a 2-vCPU host), so a fork-join issued within it finds the helper
// running.
const warm = 500 * time.Microsecond

// joinSpin is how long a For caller that has run out of chunks spins on
// the helpers' last ones before it blocks.
const joinSpin = 50 * time.Microsecond

// loop is one For call: its chunks, claimed off next by the caller and
// by the helpers that join it.
type loop struct {
	fn               func(lo, hi int)
	n, grain, chunks int
	next             atomic.Int64
	want             int // helpers it may still take; under sched.mu
	running          atomic.Int32
	joined           sync.WaitGroup
}

// run claims and runs chunks until none is left.
func (l *loop) run() {
	for {
		c := int(l.next.Add(1)) - 1
		if c >= l.chunks {
			return
		}
		lo := c * l.grain
		l.fn(lo, min(lo+l.grain, l.n))
	}
}

// sched is the helper set's shared state. Every change to what a helper
// can take is made under mu and bumps signal, which is all a warm helper
// watches.
var sched struct {
	mu      sync.Mutex
	loops   []*loop // For calls that still take helpers, oldest first
	pools   []*Pool // open pools
	helpers int     // live helpers
	idle    int     // helpers in their warm window
}

var signal atomic.Uint64

// takeLocked hands out the next job, For chunks before pool tasks: a
// loop to join, or a pool's task; neither means there is none.
// sched.mu is held.
func takeLocked() (*loop, *Pool, func()) {
	if len(sched.loops) > 0 {
		l := sched.loops[0]
		if l.want--; l.want == 0 {
			unlistLocked(l)
		}
		l.running.Add(1)
		l.joined.Add(1)
		return l, nil, nil
	}
	for _, p := range sched.pools {
		if p.running < p.n {
			select {
			case f := <-p.tasks:
				p.running++
				return nil, p, f
			default:
			}
		}
	}
	return nil, nil, nil
}

func unlistLocked(l *loop) {
	if i := slices.Index(sched.loops, l); i >= 0 {
		sched.loops = slices.Delete(sched.loops, i, i+1)
	}
}

// spawnLocked starts up to k more helpers, keeping the set at most max
// strong. sched.mu is held.
func spawnLocked(k, max int) {
	for ; k > 0 && sched.helpers < max; k-- {
		sched.helpers++
		go helper()
	}
}

// helper runs jobs until a whole warm window passes without one. While
// it waits it spins and never parks, so the next job does not wait for a
// thread to wake; each turn of the spin hands the processor to any
// goroutine queued on it and the CPU to any thread queued on that, so
// the spin takes only time nothing else wants (a helper the OS placed on
// the CPU of the caller it serves must not keep the caller off it).
func helper() {
	var idleSince time.Time
	sched.mu.Lock()
	for {
		if l, p, f := takeLocked(); l != nil || p != nil {
			sched.mu.Unlock()
			if l != nil {
				l.run()
				l.running.Add(-1)
				l.joined.Done()
				sched.mu.Lock()
			} else {
				f()
				sched.mu.Lock()
				p.running--
				signal.Add(1) // a task the pool's bound held back may now run
				p.queued.Done()
			}
			idleSince = time.Time{}
			continue
		}
		if idleSince.IsZero() {
			idleSince = time.Now()
		} else if time.Since(idleSince) >= warm {
			sched.helpers--
			sched.mu.Unlock()
			return
		}
		seen := signal.Load()
		sched.idle++
		sched.mu.Unlock()
		for signal.Load() == seen && time.Since(idleSince) < warm {
			runtime.Gosched()
			osYield()
		}
		sched.mu.Lock()
		sched.idle--
	}
}

// For splits [0, n) into chunks of grain indices (the last chunk may be
// short) and runs fn over every chunk, on the caller and up to
// Workers()-1 helpers. It returns when all chunks are done. fn must be
// safe to run concurrently on disjoint ranges.
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
	l := &loop{fn: fn, n: n, grain: grain, chunks: chunks, want: min(w, chunks) - 1}
	sched.mu.Lock()
	sched.loops = append(sched.loops, l)
	signal.Add(1)
	spawnLocked(l.want-sched.idle, w-1)
	sched.mu.Unlock()
	l.run()
	sched.mu.Lock()
	if l.want > 0 {
		unlistLocked(l)
	}
	sched.mu.Unlock()
	// A warm helper keeps its processor busy, so no idle one runs this
	// processor's expired timers (a transfer sleeping on the channel,
	// say) while the caller computes: the scheduler runs them here.
	runtime.Gosched()
	// No helper joins from here on: wait for the chunks the joined ones
	// still run, spinning first since a chunk is short. They run on other
	// processors, so the spin yields only the CPU.
	for start := time.Now(); l.running.Load() > 0 && time.Since(start) < joinSpin; {
		osYield()
	}
	l.joined.Wait()
}
