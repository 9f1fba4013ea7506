// Package tensor provides the dense NCHW float32 tensor type used
// throughout the JPEG-ACT reproduction: activations, weights, and
// gradients are all Tensors.
//
// The layout is always batch-major NCHW (batch, channel, height, width),
// the layout the paper assumes for activation offload (§III-C). A Tensor
// of lower rank is represented by setting the leading dimensions to 1,
// e.g. a bias vector of C elements is (1, C, 1, 1).
package tensor

import (
	"fmt"
	"math"

	"jpegact/internal/parallel"
)

// Shape describes the four NCHW dimensions of a Tensor.
type Shape struct {
	N, C, H, W int
}

// Elems returns the total number of elements implied by the shape.
func (s Shape) Elems() int { return s.N * s.C * s.H * s.W }

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

func (s Shape) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", s.N, s.C, s.H, s.W)
}

// Tensor is a dense float32 tensor in NCHW layout. The zero value is an
// empty tensor; use New or FromSlice to create a usable one.
type Tensor struct {
	Shape Shape
	Data  []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(n, c, h, w int) *Tensor {
	s := Shape{n, c, h, w}
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Tensor{Shape: s, Data: make([]float32, s.Elems())}
}

// NewLike allocates a zero-filled tensor with the same shape as t.
func NewLike(t *Tensor) *Tensor {
	return New(t.Shape.N, t.Shape.C, t.Shape.H, t.Shape.W)
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must match the shape.
func FromSlice(data []float32, n, c, h, w int) *Tensor {
	s := Shape{n, c, h, w}
	if len(data) != s.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Tensor{Shape: s, Data: data}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: t.Shape, Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// At returns the element at (n, c, h, w).
func (t *Tensor) At(n, c, h, w int) float32 {
	return t.Data[t.Index(n, c, h, w)]
}

// Index returns the flat offset of element (n, c, h, w).
func (t *Tensor) Index(n, c, h, w int) int {
	s := t.Shape
	return ((n*s.C+c)*s.H+h)*s.W + w
}

// Elems returns the number of elements in t.
func (t *Tensor) Elems() int { return len(t.Data) }

// Bytes returns the uncompressed size of t in bytes (float32 storage).
func (t *Tensor) Bytes() int { return 4 * len(t.Data) }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Add accumulates other into t elementwise.
func (t *Tensor) Add(other *Tensor) {
	if len(other.Data) != len(t.Data) {
		panic("tensor: Add size mismatch")
	}
	for i, v := range other.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// MaxAbs returns the maximum absolute value over all elements.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// ChannelMaxAbs returns, for each channel c, max over n,h,w of |x[n,c,h,w]|.
// This is the per-channel maximum used by SFPR's scaling factor (Eqn. 4).
// Channels shard over the worker pool (each worker owns whole channels,
// so out[c] has one writer), and max is order-independent, so the result
// is the same at any worker count.
func (t *Tensor) ChannelMaxAbs() []float32 {
	// Minimum elements per parallel chunk.
	const grain = 1 << 14
	s := t.Shape
	out := make([]float32, s.C)
	parallel.For(s.C, parallel.Grain(s.N*s.H*s.W, grain), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			out[c] = t.ChannelMaxAbsOf(c)
		}
	})
	return out
}

// ChannelMaxAbsOf is ChannelMaxAbs for the single channel c.
//
// The reduction runs four independent accumulators per plane with the
// sign bit masked off in the integer domain; both |·| and max are exact
// operations, so the split changes no result bit relative to a serial
// scan, it only breaks the loop-carried compare dependency. NaNs compare
// false and are skipped.
func (t *Tensor) ChannelMaxAbsOf(c int) float32 {
	const signMask = 0x7FFFFFFF
	s := t.Shape
	hw := s.H * s.W
	var m float32
	for n := 0; n < s.N; n++ {
		base := (n*s.C + c) * hw
		plane := t.Data[base : base+hw]
		var m0, m1, m2, m3 float32
		i := 0
		for ; i+4 <= hw; i += 4 {
			v0 := math.Float32frombits(math.Float32bits(plane[i]) & signMask)
			v1 := math.Float32frombits(math.Float32bits(plane[i+1]) & signMask)
			v2 := math.Float32frombits(math.Float32bits(plane[i+2]) & signMask)
			v3 := math.Float32frombits(math.Float32bits(plane[i+3]) & signMask)
			if v0 > m0 {
				m0 = v0
			}
			if v1 > m1 {
				m1 = v1
			}
			if v2 > m2 {
				m2 = v2
			}
			if v3 > m3 {
				m3 = v3
			}
		}
		for ; i < hw; i++ {
			v := math.Float32frombits(math.Float32bits(plane[i]) & signMask)
			if v > m0 {
				m0 = v
			}
		}
		m = max(m, m0, m1, m2, m3)
	}
	return m
}

// L2Error returns the average per-element L2 error between a and b:
// |a-b|_2 / numElements, the metric of Eqn. 10.
func L2Error(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: L2Error size mismatch")
	}
	var sum float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		sum += d * d
	}
	return math.Sqrt(sum) / float64(len(a.Data))
}

// MSE returns the mean squared error between a and b.
func MSE(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: MSE size mismatch")
	}
	var sum float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		sum += d * d
	}
	return sum / float64(len(a.Data))
}
