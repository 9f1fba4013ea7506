package tensor

import (
	"math"
	"testing"
)

func TestArenaReusesReleasedBuffers(t *testing.T) {
	a := NewArena()
	x := a.Wrap(New(2, 3, 4, 4))
	if x.Recycled() {
		t.Fatal("a wrapped tensor's data is not the arena's")
	}
	y := x.Derive(x.Shape)
	if !y.Recycled() || a.InUse() != y.Bytes() {
		t.Fatalf("derived tensor: recycled %v, in use %d B, want true and %d", y.Recycled(), a.InUse(), y.Bytes())
	}
	first := &y.Data[0]
	y.Release()
	if y.Data != nil || a.InUse() != 0 {
		t.Fatalf("after Release: data %v, in use %d B", y.Data != nil, a.InUse())
	}
	y.Release() // a second Release does nothing
	z := x.Derive(x.Shape)
	if &z.Data[0] != first {
		t.Fatal("a released buffer was not handed out again")
	}
	w := z.Derive(Shape{1, 1, 1, 5}) // another length: a buffer of its own
	if a.HighWater() != z.Bytes()+w.Bytes() {
		t.Fatalf("high water %d B, want %d", a.HighWater(), z.Bytes()+w.Bytes())
	}

	a.Reset()
	if a.InUse() != 0 || z.Recycled() || z.Data == nil {
		t.Fatalf("after Reset: in use %d B, z recycled %v, z data kept %v", a.InUse(), z.Recycled(), z.Data != nil)
	}
	z.Release() // handed out before the Reset: nothing to return
	x.Release() // the wrapped batch keeps its data
	if a.InUse() != 0 || x.Data == nil {
		t.Fatalf("stale releases: in use %d B, wrapped data kept %v", a.InUse(), x.Data != nil)
	}
	// The Reset returned each buffer once: two requests get two buffers.
	if p, q := x.Derive(x.Shape), x.Derive(x.Shape); &p.Data[0] == &q.Data[0] {
		t.Fatal("one buffer handed out twice")
	}
}

func TestDeriveWithoutArenaIsTheHeap(t *testing.T) {
	x := New(1, 2, 3, 4)
	x.Fill(7)
	y := x.Derive(Shape{2, 2, 2, 2})
	if y.Recycled() || y.Elems() != 16 {
		t.Fatalf("heap tensor: recycled %v, %d elements", y.Recycled(), y.Elems())
	}
	for _, v := range y.Data {
		if v != 0 {
			t.Fatal("a heap tensor is zero-filled")
		}
	}
	y.Release()
	if y.Data == nil {
		t.Fatal("Release emptied a heap tensor")
	}
	var none *Arena
	if none.Wrap(x) != x {
		t.Fatal("a nil arena wraps nothing")
	}
	none.Reset()
}

func TestPoisonFillsHandouts(t *testing.T) {
	defer Poison()()
	a := NewArena()
	x := a.Wrap(New(1, 1, 2, 2))
	x.Derive(x.Shape).Release()
	for _, v := range x.Derive(x.Shape).Data {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("poisoned handout holds %v", v)
		}
	}
}
