package nn

import (
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// ReLU is the rectified linear unit. It saves its *output* ref (the
// framework convention of §II-A: (r > 0) = (x > 0), so the output works
// for the backward mask, and the same tensor doubles as the next layer's
// input). If the compression hook replaced the ref with a BRC mask, the
// backward pass uses the mask directly (Eqn. 3).
type ReLU struct {
	LayerName string
	out       *ActRef
}

// NewReLU builds a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// SavedRefs implements Layer.
func (r *ReLU) SavedRefs() []*ActRef {
	if r.out == nil {
		return nil
	}
	return []*ActRef{r.out}
}

// Forward implements Layer.
func (r *ReLU) Forward(in *ActRef, train bool) *ActRef {
	x := in.T
	out := x.Derive(x.Shape)
	dst := out.Data
	// Branchless integer select: activations are ~half negative, so the
	// naive `if v > 0` mispredicts constantly. `bits-1 < 0x7F800000`
	// (unsigned) is exactly `v > 0` over every input class: +0 wraps to
	// 0xFFFFFFFF (drop), negatives and -0 have the sign bit (drop), NaNs
	// sit above 0x7F800000 after the decrement (drop, as NaN > 0 is
	// false), positives through +Inf land below it (keep).
	parallel.For(len(dst), elemGrain, func(lo, hi int) {
		d := dst[lo:hi]
		for i, v := range x.Data[lo:hi][:len(d)] {
			bits := math.Float32bits(v)
			z := uint32(0)
			if bits-1 < 0x7F800000 {
				z = bits
			}
			d[i] = math.Float32frombits(z)
		}
	})
	// Provisional kind: a consuming conv upgrades this to KindReLUToConv.
	ref := &ActRef{Name: r.LayerName + ".out", Kind: compress.KindReLUToOther, T: out}
	if train {
		r.out = ref.save()
	}
	return ref
}

// Backward implements Layer. Every element of dx is written: a step
// arena's buffer holds the last step's values. The gradient passes
// through an AND with an all-ones or all-zero mask, not a branch on data
// that is about half negative; a dropped element is +0 either way.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := grad.Derive(grad.Shape)
	parallel.For(len(dx.Data), elemGrain, func(lo, hi int) {
		g := grad.Data[lo:hi]
		d := dx.Data[lo:hi][:len(g)]
		if mask := r.out.Mask; mask != nil {
			m := mask[lo:hi][:len(g)]
			for i, v := range g {
				var keep uint32
				if m[i] {
					keep = ^uint32(0)
				}
				d[i] = math.Float32frombits(math.Float32bits(v) & keep)
			}
			return
		}
		saved := r.out.T.Data[lo:hi][:len(g)]
		for i, v := range g {
			d[i] = math.Float32frombits(math.Float32bits(v) & passMask(saved[i]))
		}
	})
	return dx
}

// passMask is all ones exactly when !(v <= 0) — v positive, +Inf
// included, or any NaN, which keeps passing its gradient — and zero for
// ±0 and every other negative. With x the bits as an int32, x > 0 is the
// sign of -x &^ x (MinInt32, −0, negates to itself), and |v| is a NaN
// exactly when 0x7F800000 − |x| borrows into the sign.
func passMask(v float32) uint32 {
	x := int32(math.Float32bits(v))
	return uint32((-x&^x | (0x7F800000 - x&0x7FFFFFFF)) >> 31)
}

// Dropout zeroes a fraction of activations during training, rescaling the
// rest by 1/keep. Its output is a sparse activation of kind pool/dropout
// (Table II). The backward mask is recovered from the saved output's
// non-zero pattern, so BRC-style compression of the mask is implicit.
type Dropout struct {
	LayerName string
	Rate      float64
	rng       *tensor.RNG
	out       *ActRef
}

// NewDropout builds a dropout layer with the given drop rate.
func NewDropout(name string, rate float64, rng *tensor.RNG) *Dropout {
	return &Dropout{LayerName: name, Rate: rate, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.LayerName }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// SavedRefs implements Layer.
func (d *Dropout) SavedRefs() []*ActRef {
	if d.out == nil {
		return nil
	}
	return []*ActRef{d.out}
}

// Forward implements Layer.
func (d *Dropout) Forward(in *ActRef, train bool) *ActRef {
	if !train {
		return in
	}
	x := in.T
	out := x.Derive(x.Shape)
	keep := float32(1 - d.Rate)
	for i, v := range x.Data {
		var y float32
		if d.rng.Float64() >= d.Rate {
			y = v / keep
		}
		out.Data[i] = y
	}
	ref := &ActRef{Name: d.LayerName + ".out", Kind: compress.KindPoolDropout, T: out}
	d.out = ref.save()
	return ref
}

// Backward implements Layer, writing every element of dx.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := grad.Derive(grad.Shape)
	keep := float32(1 - d.Rate)
	for i, v := range d.out.T.Data {
		var g float32
		if v != 0 {
			g = grad.Data[i] / keep
		}
		dx.Data[i] = g
	}
	return dx
}
