package parallel

import (
	"sync/atomic"
	"testing"
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(3)
	var sum atomic.Int64
	for i := 1; i <= 100; i++ {
		i := i
		p.Submit(func() { sum.Add(int64(i)) })
	}
	p.Close()
	if got := sum.Load(); got != 5050 {
		t.Fatalf("sum %d, want 5050", got)
	}
}

func TestPoolDefaultsToWorkers(t *testing.T) {
	prev := SetWorkers(5)
	defer SetWorkers(prev)
	p := NewPool(0)
	defer p.Close()
	if got := cap(p.tasks); got != 2*5 {
		t.Fatalf("queue of %d for 5 workers, want 10", got)
	}
}

func TestPoolSingleWorkerIsSequential(t *testing.T) {
	p := NewPool(1)
	var order []int
	done := make(chan struct{})
	for i := 0; i < 10; i++ {
		i := i
		p.Submit(func() { order = append(order, i) })
	}
	p.Submit(func() { close(done) })
	<-done
	p.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v", order)
		}
	}
}
