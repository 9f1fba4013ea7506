package parallel

import "sync"

// Pool is a persistent worker pool for pipelined work — unlike For,
// which fans one loop out and joins, a Pool keeps its goroutines alive
// across many submissions so a producer (the forward pass handing
// activations to the offload engine) never pays goroutine startup on
// the hot path. The task queue is bounded: Submit blocks when the pool
// is saturated, giving natural backpressure.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

// NewPool starts a pool of n workers (n <= 0 uses Workers()).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = Workers()
	}
	p := &Pool{tasks: make(chan func(), 2*n)}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Submit enqueues f, blocking while the queue is full. It must not be
// called after Close.
func (p *Pool) Submit(f func()) { p.tasks <- f }

// Close stops accepting work, runs everything already queued, and waits
// for the workers to exit.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}
