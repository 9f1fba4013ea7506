package parallel

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		old := SetWorkers(w)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 64, 5000} {
				hits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("workers=%d n=%d grain=%d: bad range [%d,%d)", w, n, grain, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d hit %d times", w, n, grain, i, h)
					}
				}
			}
		}
		SetWorkers(old)
	}
}

func TestForSerialFallbackRunsInline(t *testing.T) {
	old := SetWorkers(4)
	defer SetWorkers(old)
	// A single chunk must run as one inline fn(0, n) call.
	calls := 0
	For(10, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected one [0,10) call, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 inline call, got %d", calls)
	}
}

func TestSetWorkers(t *testing.T) {
	orig := Workers()
	if prev := SetWorkers(3); prev != orig {
		t.Fatalf("SetWorkers returned %d, want %d", prev, orig)
	}
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(0) // restore default
	if w := Workers(); w < 1 {
		t.Fatalf("default workers = %d, want >= 1", w)
	}
	SetWorkers(orig)
}

func TestEnvOverride(t *testing.T) {
	os.Setenv(EnvWorkers, "5")
	defer os.Unsetenv(EnvWorkers)
	if got := defaultWorkers(); got != 5 {
		t.Fatalf("defaultWorkers with %s=5 = %d", EnvWorkers, got)
	}
	os.Setenv(EnvWorkers, "bogus")
	if got := defaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("defaultWorkers with bogus env = %d, want GOMAXPROCS", got)
	}
}

func TestGrain(t *testing.T) {
	if g := Grain(100, 1000); g != 10 {
		t.Fatalf("Grain(100,1000) = %d, want 10", g)
	}
	if g := Grain(10000, 100); g != 1 {
		t.Fatalf("Grain(10000,100) = %d, want 1", g)
	}
	if g := Grain(0, 100); g != 100 {
		t.Fatalf("Grain(0,100) = %d, want 100", g)
	}
}

// covered runs f with a body that counts every index of [0, n) it is
// handed and fails t unless each was handed exactly once.
func covered(t *testing.T, n int, f func(body func(lo, hi int))) {
	t.Helper()
	hits := make([]int32, n)
	f(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d of %d hit %d times", i, n, h)
			return
		}
	}
}

func TestConcurrentForCalls(t *testing.T) {
	old := SetWorkers(4)
	defer SetWorkers(old)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 1 + (g*500+i)%97
				covered(t, n, func(body func(lo, hi int)) { For(n, 1+i%5, body) })
			}
		}()
	}
	wg.Wait()
}

func TestNestedFor(t *testing.T) {
	old := SetWorkers(3)
	defer SetWorkers(old)
	const outer, inner = 16, 40
	covered(t, outer*inner, func(body func(lo, hi int)) {
		For(outer, 1, func(lo, hi int) {
			for o := lo; o < hi; o++ {
				For(inner, 3, func(a, b int) { body(o*inner+a, o*inner+b) })
			}
		})
	})
}

// TestPoolTaskRunsFor is the offload engine's shape: every encode is a
// pool task whose codec stages are For calls.
func TestPoolTaskRunsFor(t *testing.T) {
	old := SetWorkers(2)
	defer SetWorkers(old)
	const tasks, n = 50, 300
	covered(t, tasks*n, func(body func(lo, hi int)) {
		p := NewPool(0)
		for k := 0; k < tasks; k++ {
			p.Submit(func() {
				For(n, 7, func(lo, hi int) { body(k*n+lo, k*n+hi) })
			})
		}
		p.Close()
	})
}

func TestPoolCloseWaitsForEveryTask(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	for i := 0; i < 40; i++ {
		p.Submit(func() {
			time.Sleep(100 * time.Microsecond)
			ran.Add(1)
		})
	}
	p.Close()
	if got := ran.Load(); got != 40 {
		t.Fatalf("Close returned after %d of 40 tasks", got)
	}
}

// TestHelpersExitAfterTheWarmWindow: no helper outlives its window, so
// a process that stops calling For is back to its own goroutines.
func TestHelpersExitAfterTheWarmWindow(t *testing.T) {
	old := SetWorkers(4)
	defer SetWorkers(old)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		sched.mu.Lock()
		left := sched.helpers
		sched.mu.Unlock()
		if left == 0 {
			break // the helpers of earlier tests are gone
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still live a second after the last test", left)
		}
	}
	base := runtime.NumGoroutine()
	p := NewPool(0)
	for i := 0; i < 100; i++ {
		For(64, 1, func(lo, hi int) {})
		p.Submit(func() { For(16, 1, func(lo, hi int) {}) })
	}
	p.Close()
	deadline := time.Now().Add(50 * time.Millisecond)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 50 ms after the last call, %d before the first", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// spinWork burns about a microsecond per unit on this kind of host.
func spinWork(units int) int {
	x := 1
	for i := 0; i < units*600; i++ {
		x = x*1664525 + 1013904223
	}
	return x
}

var sink atomic.Int64

// BenchmarkFor reports the wall time of one 32-chunk For of ≈ 1 µs
// chunks: issued back to back, where a warm helper takes the next call,
// and after a 1 ms idle gap, where the helpers are gone and the call
// starts them again.
func BenchmarkFor(b *testing.B) {
	body := func(lo, hi int) { sink.Add(int64(spinWork(hi - lo))) }
	for _, gap := range []time.Duration{0, time.Millisecond} {
		name := "back-to-back"
		if gap > 0 {
			name = "after-1ms-idle"
		}
		b.Run(name, func(b *testing.B) {
			var busy time.Duration
			for i := 0; i < b.N; i++ {
				if gap > 0 {
					time.Sleep(gap)
				}
				start := time.Now()
				For(32, 1, body)
				busy += time.Since(start)
			}
			b.ReportMetric(float64(busy.Microseconds())/float64(b.N), "us/call")
		})
	}
}
