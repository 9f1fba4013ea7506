package nn

import (
	"runtime"
	"sync"
	"testing"
)

// same reports whether a and b start at the same element: one buffer.
func same(a, b []float32) bool { return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] }

func TestScratchGetIsBestFit(t *testing.T) {
	var l scratchList
	bufs := map[int][]float32{}
	for _, n := range []int{100, 50, 200, 75} {
		bufs[n] = make([]float32, n)
		l.put(bufs[n])
	}
	for _, c := range []struct{ n, from int }{{60, 75}, {10, 50}, {150, 200}, {1, 100}} {
		b := l.get(c.n)
		if len(b) != c.n || !same(b, bufs[c.from]) {
			t.Errorf("get(%d) returned len %d cap %d; want the cap-%d buffer", c.n, len(b), cap(b), c.from)
		}
	}
	if len(l.bufs) != 0 || l.bytes != 0 {
		t.Errorf("after four gets the list still holds %d buffers, %d B", len(l.bufs), l.bytes)
	}
}

func TestScratchFreshBufferIsExact(t *testing.T) {
	var l scratchList
	l.put(make([]float32, 64))
	for _, n := range []int{65, 1000} {
		if b := l.get(n); len(b) != n || cap(b) != n {
			t.Errorf("get(%d) past every free buffer returned len %d cap %d; want exactly n", n, len(b), cap(b))
		}
	}
	if len(l.bufs) != 1 {
		t.Errorf("the list holds %d buffers; a draw nothing fits must leave the 64-float one", len(l.bufs))
	}
}

func TestScratchCapDropsOldestFirst(t *testing.T) {
	var l scratchList
	third := scratchBytes / 4 / 3
	a, b, c, d := make([]float32, third), make([]float32, third), make([]float32, third), make([]float32, third)
	for _, x := range [][]float32{a, b, c} {
		l.put(x)
	}
	if len(l.bufs) != 3 {
		t.Fatalf("three thirds of the cap: the list holds %d buffers, want 3", len(l.bufs))
	}
	l.put(d)
	if len(l.bufs) != 3 || !same(l.bufs[0], b) || !same(l.bufs[2], d) || l.bytes > scratchBytes {
		t.Errorf("past the cap the list holds %d buffers, %d B; want b, c, d and at most %d B", len(l.bufs), l.bytes, scratchBytes)
	}
	l.put(make([]float32, scratchBytes/4+1))
	if len(l.bufs) != 3 {
		t.Errorf("a buffer larger than the cap was kept: %d buffers", len(l.bufs))
	}
}

// convStep is the request sequence one batch element of a stage-0 conv
// layer of the bench model makes at one worker (16→16 channels, 3×3, pad
// 1, 32×32 planes, batch 8, blocks of 128 output positions): a positive
// entry draws that many floats, a negative one puts back what the draw at
// index −entry−1 returned.
var convStep = []int{
	// Forward: one block's lowered panels.
	18432, -1,
	// Backward: Wᵀ and the ∇W partials, then the ∇W pass's cols block and
	// ∇y panels, and the ∇x pass's ∇cols block and ∇y panels; Wᵀ is
	// released after the passes, the partials after they are summed.
	2304, 18432, 18432, 2048, -5, -6, 18432, 2048, -9, -10, -3, -4,
}

// replay runs seq once against l; drawn is its scratch, len(seq) long.
func replay(l *scratchList, seq []int, drawn [][]float32) {
	for i, op := range seq {
		if op > 0 {
			drawn[i] = l.get(op)
		} else {
			l.put(drawn[-op-1])
		}
		runtime.Gosched()
	}
}

// TestScratchConcurrentStepsAllocateNothing runs two goroutines that
// replay one conv step's requests at once, as two workers or two
// data-parallel replicas do, yielding between requests so the two
// interleave. Which buffer a draw gets depends on the interleaving: a
// small draw takes a large buffer while its own size is out, and a large
// one may then miss. Each miss adds a buffer, and once the list holds as
// many as the two replays can hold at once (four each), no draw
// allocates: not one byte as large as the smallest request.
func TestScratchConcurrentStepsAllocateNothing(t *testing.T) {
	var l scratchList
	steps := func(n int) uint64 {
		var before, after runtime.MemStats
		var done sync.WaitGroup
		gate := make(chan struct{})
		done.Add(2)
		for range 2 {
			go func() {
				drawn := make([][]float32, len(convStep))
				<-gate
				for range n {
					replay(&l, convStep, drawn)
				}
				done.Done()
			}()
		}
		runtime.ReadMemStats(&before)
		close(gate)
		done.Wait()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const held, measured, smallest = 8, 2000, 4 * 2048
	warm := 0
	for ; len(l.bufs) < held && warm < 100_000; warm += 100 {
		steps(100)
	}
	if n := steps(measured); n >= smallest {
		t.Errorf("after %d warm steps, %d more steps on two goroutines allocated %d B; the list holds %d buffers, %d B",
			warm, measured, n, len(l.bufs), l.bytes)
	}
}
