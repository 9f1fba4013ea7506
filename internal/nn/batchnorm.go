package nn

import (
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// elemGrain is the per-chunk element count for the pointwise loops:
// large enough that goroutine overhead stays invisible, small enough to
// split typical activation planes across the pool.
const elemGrain = 4096

// BatchNorm normalizes per channel over (N, H, W) with learnable scale
// gamma and shift beta (Ioffe & Szegedy). It saves its input — the dense
// "norm input c" of Fig. 3, the activation whose mandatory storage
// motivates JPEG-ACT — plus the small per-channel batch statistics (which
// stay on-GPU and are never offloaded).
type BatchNorm struct {
	LayerName string
	C         int
	Gamma     *Param
	Beta      *Param
	Eps       float64
	Momentum  float64 // running-stat update rate

	RunningMean []float32
	RunningVar  []float32

	in     *ActRef
	mean   []float32 // batch stats from the last training forward
	invStd []float32
}

// NewBatchNorm builds a batch-norm layer for C channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	bn := &BatchNorm{
		LayerName:   name,
		C:           c,
		Gamma:       NewParam(name+".gamma", 1, c, 1, 1),
		Beta:        NewParam(name+".beta", 1, c, 1, 1),
		Eps:         1e-5,
		Momentum:    0.1,
		RunningMean: make([]float32, c),
		RunningVar:  make([]float32, c),
		mean:        make([]float32, c),
		invStd:      make([]float32, c),
	}
	bn.Gamma.W.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return b.LayerName }

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// SavedRefs implements Layer.
func (b *BatchNorm) SavedRefs() []*ActRef {
	if b.in == nil {
		return nil
	}
	return []*ActRef{b.in}
}

// Forward implements Layer.
func (b *BatchNorm) Forward(in *ActRef, train bool) *ActRef {
	x := in.T
	sh := x.Shape
	hw := sh.H * sh.W
	m := float64(sh.N * hw)
	out := x.Derive(sh)

	// Channels are independent — stats, running-stat updates and the
	// normalized writes all stay within channel c — so the channel loop
	// shards over the worker pool with the per-channel float accumulation
	// order unchanged (deterministic at any worker count).
	parallel.For(b.C, parallel.Grain(3*sh.N*hw, elemGrain), func(clo, chi int) {
		for c := clo; c < chi; c++ {
			var mean, invStd float64
			if train {
				var sum float64
				for n := 0; n < sh.N; n++ {
					for _, v := range x.Data[(n*sh.C+c)*hw:][:hw] {
						sum += float64(v)
					}
				}
				mean = sum / m
				var sq float64
				for n := 0; n < sh.N; n++ {
					for _, v := range x.Data[(n*sh.C+c)*hw:][:hw] {
						d := float64(v) - mean
						sq += float64(d * d)
					}
				}
				variance := sq / m
				invStd = 1 / math.Sqrt(variance+b.Eps)
				b.mean[c] = float32(mean)
				b.invStd[c] = float32(invStd)
				b.RunningMean[c] = float32(float64((1-b.Momentum)*float64(b.RunningMean[c])) + float64(b.Momentum*mean))
				b.RunningVar[c] = float32(float64((1-b.Momentum)*float64(b.RunningVar[c])) + float64(b.Momentum*variance))
			} else {
				mean = float64(b.RunningMean[c])
				invStd = 1 / math.Sqrt(float64(b.RunningVar[c])+b.Eps)
			}
			g := float64(b.Gamma.W.Data[c])
			bt := float64(b.Beta.W.Data[c])
			for n := 0; n < sh.N; n++ {
				base := (n*sh.C + c) * hw
				dst := out.Data[base:][:hw]
				for i, v := range x.Data[base:][:len(dst)] {
					dst[i] = float32(float64((float64(v)-mean)*invStd*g) + bt)
				}
			}
		}
	})
	if train {
		b.in = in.save()
	}
	return &ActRef{Name: b.LayerName + ".out", Kind: compress.KindConv, T: out}
}

// Backward implements Layer (standard batch-norm backward, recomputing
// x̂ from the saved — possibly lossy — input and the exact batch stats).
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := b.in.T
	sh := x.Shape
	hw := sh.H * sh.W
	m := float64(sh.N * hw)
	dx := grad.Derive(sh)

	// Same channel sharding as Forward: ∂β/∂γ accumulate into their own
	// channel slot and dx writes stay within channel c.
	parallel.For(b.C, parallel.Grain(4*sh.N*hw, elemGrain), func(clo, chi int) {
		for c := clo; c < chi; c++ {
			mean := float64(b.mean[c])
			invStd := float64(b.invStd[c])
			g := float64(b.Gamma.W.Data[c])

			var sumDy, sumDyXhat float64
			for n := 0; n < sh.N; n++ {
				base := (n*sh.C + c) * hw
				gp := grad.Data[base:][:hw]
				for i, v := range x.Data[base:][:len(gp)] {
					dy := float64(gp[i])
					xh := (float64(v) - mean) * invStd
					sumDy += dy
					sumDyXhat += float64(dy * xh)
				}
			}
			b.Beta.Grad.Data[c] += float32(sumDy)
			b.Gamma.Grad.Data[c] += float32(sumDyXhat)

			// g·invStd and sumDy/m are the values the expression's left
			// operands take at every element, computed once.
			scale, meanDy := g*invStd, sumDy/m
			for n := 0; n < sh.N; n++ {
				base := (n*sh.C + c) * hw
				gp, dst := grad.Data[base:][:hw], dx.Data[base:][:hw]
				for i, v := range x.Data[base:][:len(gp)] {
					dy := float64(gp[i])
					xh := (float64(v) - mean) * invStd
					dst[i] = float32(scale * (dy - meanDy - xh*sumDyXhat/m))
				}
			}
		}
	})
	return dx
}
