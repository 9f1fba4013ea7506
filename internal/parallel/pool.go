package parallel

import (
	"slices"
	"sync"
)

// Pool is a bounded task queue for pipelined work — unlike For, which
// fans one loop out and joins, a Pool takes tasks from a producer (the
// forward pass handing activations to the offload engine) and runs them
// in submission order, at most n at a time, on the package's helpers.
// It has no goroutines of its own: a warm helper takes a submitted task
// without a wake, after any For chunks that are waiting. The queue holds
// 2n tasks; Submit blocks when it is full, giving natural backpressure.
type Pool struct {
	tasks   chan func()
	n       int
	running int            // tasks on helpers; under sched.mu
	queued  sync.WaitGroup // tasks submitted and not yet run
}

// NewPool opens a pool that runs up to n tasks at once (n <= 0 uses
// Workers()).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = Workers()
	}
	p := &Pool{tasks: make(chan func(), 2*n), n: n}
	sched.mu.Lock()
	sched.pools = append(sched.pools, p)
	sched.mu.Unlock()
	return p
}

// Submit enqueues f, blocking while the queue is full. It must not be
// called after Close.
func (p *Pool) Submit(f func()) {
	p.queued.Add(1)
	p.tasks <- f
	sched.mu.Lock()
	signal.Add(1)
	if sched.idle == 0 {
		spawnLocked(1, Workers())
	}
	sched.mu.Unlock()
}

// Close waits until every submitted task has run and closes the pool.
func (p *Pool) Close() {
	p.queued.Wait()
	sched.mu.Lock()
	sched.pools = slices.DeleteFunc(sched.pools, func(x *Pool) bool { return x == p })
	sched.mu.Unlock()
	close(p.tasks)
}
