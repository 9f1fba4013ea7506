package nn

import (
	"runtime"
	"sync"
	"testing"

	"jpegact/internal/freelist"
)

// same reports whether a and b start at the same element: one buffer.
func same(a, b []float32) bool { return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] }

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
func replay(l *freelist.List[float32], seq []int, drawn [][]float32) {
	for i, op := range seq {
		if op > 0 {
			drawn[i] = l.Get(op)
		} else {
			l.Put(drawn[-op-1])
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
	l := freelist.New[float32](scratchBytes, 0, nil) // scratch's bounds, empty
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
					replay(l, convStep, drawn)
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
	for ; l.Len() < held && warm < 100_000; warm += 100 {
		steps(100)
	}
	if n := steps(measured); n >= smallest {
		t.Errorf("after %d warm steps, %d more steps on two goroutines allocated %d B; the list holds %d buffers, %d B",
			warm, measured, n, l.Len(), l.Bytes())
	}
}
