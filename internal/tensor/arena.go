package tensor

import (
	"math"
	"sync"
	"sync/atomic"
)

// Arena is a step arena: a free list of float32 buffers for the tensors a
// training step computes — layer outputs, input gradients, the loss
// gradient. A tensor Derive draws from an arena holds whatever its buffer
// last held, so the kernel writing it must write every element; Release
// hands the buffer back as soon as nothing reads it (an intermediate
// after its consumer, a saved activation or its restore after its last
// backward reader), and Reset hands back everything still out, so step
// t+1 reuses step t's memory instead of asking the runtime for fresh
// zeroed pages. The high-water is what the step needed at once.
//
// Buffers are matched by exact length: a network's steps ask for the same
// shapes in the same order, so after the first step the free list serves
// every request. Handing out (Derive, Get) and Release may come from any
// goroutine, under the arena's mutex: the offload engine commits frames
// on its own goroutine, and decodes each restore on its encode pool into
// a buffer drawn from the arena the commit released the tensor to. Reset
// belongs to the goroutine running the step, between steps.
type Arena struct {
	mu    sync.Mutex
	free  map[int][][]float32 // by length, most recently returned last
	out   []*Tensor           // handed out since the last Reset
	inUse int                 // elements handed out and not returned
	high  int                 // the most inUse has been
}

// poison, when set, fills every buffer with NaN before it is handed out,
// so a kernel that reads an element it did not write poisons its result.
// Only tests set it (export_test.go).
var poison atomic.Bool

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{free: map[int][][]float32{}} }

// Wrap returns a tensor sharing t's data whose derived tensors come from
// a. The data stays t's: Release on the result does nothing. A nil arena
// returns t itself.
func (a *Arena) Wrap(t *Tensor) *Tensor {
	if a == nil {
		return t
	}
	return &Tensor{Shape: t.Shape, Data: t.Data, arena: a}
}

// Reset returns every buffer still handed out. A tensor that holds one
// keeps its Data, but the buffer is the next step's to overwrite and its
// Release no longer does anything.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	for _, t := range a.out {
		if t.pooled {
			a.free[len(t.Data)] = append(a.free[len(t.Data)], t.Data)
			t.pooled = false
		}
	}
	clear(a.out)
	a.out = a.out[:0]
	a.inUse = 0
	a.mu.Unlock()
}

// InUse returns the bytes handed out and not yet returned.
func (a *Arena) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return 4 * a.inUse
}

// HighWater returns the most bytes the arena has had handed out at once.
func (a *Arena) HighWater() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return 4 * a.high
}

// Derive returns a tensor of shape s for a result computed from t: from
// t's arena with unspecified contents, or zero-filled from the heap when t
// has none.
func (t *Tensor) Derive(s Shape) *Tensor { return t.arena.Get(s) }

// Get hands out a tensor of shape s whose contents are unspecified, so
// its writer must write every element; a nil arena returns a zero-filled
// heap tensor.
func (a *Arena) Get(s Shape) *Tensor {
	if a == nil || !s.Valid() {
		return New(s.N, s.C, s.H, s.W) // which panics on an invalid shape
	}
	n := s.Elems()
	a.mu.Lock()
	var buf []float32
	if l := a.free[n]; len(l) > 0 {
		buf = l[len(l)-1]
		a.free[n] = l[:len(l)-1]
	} else {
		buf = make([]float32, n)
	}
	out := &Tensor{Shape: s, Data: buf, arena: a, pooled: true}
	a.out = append(a.out, out)
	a.inUse += n
	a.high = max(a.high, a.inUse)
	a.mu.Unlock()
	if poison.Load() {
		nan := float32(math.NaN())
		for i := range buf {
			buf[i] = nan
		}
	}
	return out
}

// Recycled reports whether t's buffer came from an arena, and so may hold
// stale values where a kernel that accumulates expects zeros.
func (t *Tensor) Recycled() bool { return t.pooled }

// Release hands t's buffer back to the arena it came from, leaves t
// empty (Data nil) and returns that arena. It does nothing to a tensor
// its arena did not hand out, or handed out before its last Reset, and
// returns nil.
func (t *Tensor) Release() *Arena {
	if t == nil || t.arena == nil {
		return nil
	}
	a := t.arena
	a.mu.Lock()
	defer a.mu.Unlock()
	if !t.pooled {
		return nil
	}
	a.free[len(t.Data)] = append(a.free[len(t.Data)], t.Data)
	a.inUse -= len(t.Data)
	t.Data, t.pooled = nil, false
	return a
}
