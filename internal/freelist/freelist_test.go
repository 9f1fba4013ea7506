package freelist

import "testing"

// same reports whether a and b start at the same element: one buffer.
func same(a, b []float32) bool { return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] }

func TestScratchGetIsBestFit(t *testing.T) {
	l := New[float32](1<<20, 0, nil)
	bufs := map[int][]float32{}
	for _, n := range []int{100, 50, 200, 75} {
		bufs[n] = make([]float32, n)
		l.Put(bufs[n])
	}
	for _, c := range []struct{ n, from int }{{60, 75}, {10, 50}, {150, 200}, {1, 100}} {
		b := l.Get(c.n)
		if len(b) != c.n || !same(b, bufs[c.from]) {
			t.Errorf("Get(%d) returned len %d cap %d; want the cap-%d buffer", c.n, len(b), cap(b), c.from)
		}
	}
	if l.Len() != 0 || l.Bytes() != 0 {
		t.Errorf("after four gets the list still holds %d buffers, %d B", l.Len(), l.Bytes())
	}
}

func TestScratchFreshBufferIsExact(t *testing.T) {
	l := New[float32](1<<20, 0, nil)
	l.Put(make([]float32, 64))
	for _, n := range []int{65, 1000} {
		if b := l.Get(n); len(b) != n || cap(b) != n {
			t.Errorf("Get(%d) past every free buffer returned len %d cap %d; want exactly n", n, len(b), cap(b))
		}
	}
	if l.Len() != 1 {
		t.Errorf("the list holds %d buffers; a draw nothing fits must leave the 64-float one", l.Len())
	}
}

func TestScratchCapDropsOldestFirst(t *testing.T) {
	const maxBytes = 3 << 10
	l := New[float32](maxBytes, 0, nil)
	third := maxBytes / 4 / 3
	a, b, c, d := make([]float32, third), make([]float32, third), make([]float32, third), make([]float32, third)
	for _, x := range [][]float32{a, b, c} {
		l.Put(x)
	}
	if l.Len() != 3 || l.Bytes() != maxBytes {
		t.Fatalf("three thirds of the cap: the list holds %d buffers, %d B; want 3, %d B", l.Len(), l.Bytes(), maxBytes)
	}
	l.Put(d)
	if l.Len() != 3 || !same(l.bufs[0], b) || !same(l.bufs[2], d) || l.Bytes() > maxBytes {
		t.Errorf("past the cap the list holds %d buffers, %d B; want b, c, d and at most %d B", l.Len(), l.Bytes(), maxBytes)
	}
	l.Put(make([]float32, maxBytes/4+1))
	if l.Len() != 3 {
		t.Errorf("a buffer larger than the cap was kept: %d buffers", l.Len())
	}
}
