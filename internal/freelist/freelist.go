// Package freelist is a bounded best-fit free list of slices, for
// scratch that a hot path draws and hands back at sizes that vary from
// call to call. Each list's owner declares its bounds and fit rule next
// to the list.
package freelist

import (
	"slices"
	"sync"
	"unsafe"
)

// List holds free buffers oldest first, at most maxBytes of capacity and
// at most maxBufs of them. It is safe for concurrent use.
type List[T any] struct {
	maxBytes, maxBufs int
	fits              func(c, n int) bool
	mu                sync.Mutex
	bufs              [][]T
	bytes             int
}

// New returns an empty list that keeps at most maxBytes of capacity in
// at most maxBufs buffers (0: no count bound). A draw of n takes the
// smallest free buffer of capacity c ≥ n for which fits(c, n) holds, or
// any such buffer when fits is nil.
func New[T any](maxBytes, maxBufs int, fits func(c, n int) bool) *List[T] {
	return &List[T]{maxBytes: maxBytes, maxBufs: maxBufs, fits: fits}
}

// size is the bytes of capacity c.
func size[T any](c int) int {
	var v T
	return c * int(unsafe.Sizeof(v))
}

// Get returns a length-n buffer holding whatever its last user left;
// what no free buffer fits is allocated at exactly its length.
func (l *List[T]) Get(n int) []T {
	l.mu.Lock()
	best := -1
	for i, b := range l.bufs {
		if c := cap(b); c >= n && (l.fits == nil || l.fits(c, n)) && (best < 0 || c < cap(l.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		l.mu.Unlock()
		return make([]T, n)
	}
	b := l.bufs[best]
	l.bufs = slices.Delete(l.bufs, best, best+1)
	l.bytes -= size[T](cap(b))
	l.mu.Unlock()
	return b[:n]
}

// Put hands b back, dropping the oldest buffers past either bound. A
// nil b (a buffer never drawn) and one larger than the whole byte bound
// are not kept.
func (l *List[T]) Put(b []T) {
	if cap(b) == 0 || size[T](cap(b)) > l.maxBytes {
		return
	}
	l.mu.Lock()
	l.bufs = append(l.bufs, b)
	l.bytes += size[T](cap(b))
	for l.bytes > l.maxBytes || l.maxBufs > 0 && len(l.bufs) > l.maxBufs {
		l.bytes -= size[T](cap(l.bufs[0]))
		l.bufs = slices.Delete(l.bufs, 0, 1)
	}
	l.mu.Unlock()
}

// Bytes reports the capacity, in bytes, of the buffers the list holds.
func (l *List[T]) Bytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Len reports how many buffers the list holds.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.bufs)
}

// Reset drops every buffer the list holds.
func (l *List[T]) Reset() {
	l.mu.Lock()
	l.bufs, l.bytes = nil, 0
	l.mu.Unlock()
}
