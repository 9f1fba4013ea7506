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
	out := tensor.NewLike(x)
	dst := out.Data
	// Branchless integer select: activations are ~half negative, so the
	// naive `if v > 0` mispredicts constantly. `bits-1 < 0x7F800000`
	// (unsigned) is exactly `v > 0` over every input class: +0 wraps to
	// 0xFFFFFFFF (drop), negatives and -0 have the sign bit (drop), NaNs
	// sit above 0x7F800000 after the decrement (drop, as NaN > 0 is
	// false), positives through +Inf land below it (keep).
	parallel.For(len(dst), elemGrain, func(lo, hi int) {
		for i, v := range x.Data[lo:hi] {
			bits := math.Float32bits(v)
			z := uint32(0)
			if bits-1 < 0x7F800000 {
				z = bits
			}
			dst[lo+i] = math.Float32frombits(z)
		}
	})
	// Provisional kind: a consuming conv upgrades this to KindReLUToConv.
	ref := &ActRef{Name: r.LayerName + ".out", Kind: compress.KindReLUToOther, T: out}
	if train {
		r.out = ref
	}
	return ref
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.NewLike(grad)
	parallel.For(len(dx.Data), elemGrain, func(lo, hi int) {
		if mask := r.out.Mask; mask != nil {
			for i := lo; i < hi; i++ {
				if mask[i] {
					dx.Data[i] = grad.Data[i]
				}
			}
			return
		}
		saved := r.out.T.Data
		for i := lo; i < hi; i++ {
			if !(saved[i] <= 0) { // not > 0: a saved NaN keeps passing its gradient
				dx.Data[i] = grad.Data[i]
			}
		}
	})
	return dx
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
	out := tensor.NewLike(x)
	keep := float32(1 - d.Rate)
	for i, v := range x.Data {
		if d.rng.Float64() >= d.Rate {
			out.Data[i] = v / keep
		}
	}
	ref := &ActRef{Name: d.LayerName + ".out", Kind: compress.KindPoolDropout, T: out}
	d.out = ref
	return ref
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.NewLike(grad)
	keep := float32(1 - d.Rate)
	for i, v := range d.out.T.Data {
		if v != 0 {
			dx.Data[i] = grad.Data[i] / keep
		}
	}
	return dx
}
