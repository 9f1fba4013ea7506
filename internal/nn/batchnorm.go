package nn

import (
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/dct"
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

	in      *ActRef
	inShape tensor.Shape // shape of the saved input (survives offload nil-ing T)
	mean    []float32    // batch stats from the last training forward
	invStd  []float32
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
					base := (n*sh.C + c) * hw
					for i := 0; i < hw; i++ {
						sum += float64(x.Data[base+i])
					}
				}
				mean = sum / m
				var sq float64
				for n := 0; n < sh.N; n++ {
					base := (n*sh.C + c) * hw
					for i := 0; i < hw; i++ {
						d := float64(x.Data[base+i]) - mean
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
				for i := 0; i < hw; i++ {
					out.Data[base+i] = float32(float64((float64(x.Data[base+i])-mean)*invStd*g) + bt)
				}
			}
		}
	})
	if train {
		b.in = in.save()
		b.inShape = sh
	}
	return &ActRef{Name: b.LayerName + ".out", Kind: compress.KindConv, T: out}
}

// WantsCoefficients implements CoefficientConsumer: batch-norm backward
// is linear in the saved input (sums, one inner product against dy, one
// elementwise scale/add), so any 8-aligned input the codec routes
// through the DCT path qualifies. The shape test uses the recorded
// forward shape — by plan time the offload hook has already nil'd ref.T.
func (b *BatchNorm) WantsCoefficients(ref *ActRef) bool {
	return ref == b.in && ref.Kind == compress.KindConv &&
		b.inShape.H%dct.BlockSize == 0 && b.inShape.W%dct.BlockSize == 0
}

// Backward implements Layer (standard batch-norm backward, recomputing
// x̂ from the saved — possibly lossy — input and the exact batch stats).
// When the restore left a coefficient plane on the ref, the statistics
// and the dx map are computed straight in the frequency domain.
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.in.Coef != nil {
		if b.in.Coef.Aligned() && b.in.T == nil {
			return b.backwardFreq(grad)
		}
		spatialFromPlane(b.in)
	}
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
				for i := 0; i < hw; i++ {
					dy := float64(grad.Data[base+i])
					xh := (float64(x.Data[base+i]) - mean) * invStd
					sumDy += dy
					sumDyXhat += float64(dy * xh)
				}
			}
			b.Beta.Grad.Data[c] += float32(sumDy)
			b.Gamma.Grad.Data[c] += float32(sumDyXhat)

			for n := 0; n < sh.N; n++ {
				base := (n*sh.C + c) * hw
				for i := 0; i < hw; i++ {
					dy := float64(grad.Data[base+i])
					xh := (float64(x.Data[base+i]) - mean) * invStd
					dx.Data[base+i] = float32(g * invStd * (dy - sumDy/m - xh*sumDyXhat/m))
				}
			}
		}
	})
	return dx
}

// backwardFreq is the coefficient-domain backward: per channel it needs
// Σdy (from the spatial gradient, same accumulation order as the spatial
// path — so ∂β is bit-identical), Σdy·x fused into a single decode of
// the plane's blocks, and one a·dy + cx·x + bb sweep for dx over the
// decoded codes — one inverse transform per block total (the spatial
// path pays the same transform inside its restore, then two more full
// recompute-x̂ passes), and no materialized input tensor beyond a
// per-worker channel scratch. The x in the dot is the ideal (unclamped)
// dequantized reconstruction, which departs from the spatial restore by
// at most half a code unit per element; that bound is the path's
// documented tolerance. The dx map itself recovers x through the exact
// code-grid rounding, bit-identical to a spatial restore.
func (b *BatchNorm) backwardFreq(grad *tensor.Tensor) *tensor.Tensor {
	pl := b.in.Coef
	sh := pl.Shape()
	hw := sh.H * sh.W
	m := float64(sh.N * hw)
	dx := grad.Derive(sh)

	// Same channel sharding as the spatial backward: every accumulation
	// and every dx write stays within channel c, and within a channel the
	// block/element order is serial — bit-identical at any worker count.
	parallel.For(b.C, parallel.Grain(2*sh.N*hw, elemGrain), func(clo, chi int) {
		// Decoded pre-clamp codes for one channel at a time; per-worker,
		// so its lifetime never crosses a shard boundary.
		codes := make([]float32, sh.N*hw)
		for c := clo; c < chi; c++ {
			mean := float64(b.mean[c])
			invStd := float64(b.invStd[c])
			g := float64(b.Gamma.W.Data[c])

			var sumDy float64
			for n := 0; n < sh.N; n++ {
				base := (n*sh.C + c) * hw
				for i := 0; i < hw; i++ {
					sumDy += float64(grad.Data[base+i])
				}
			}
			var dotDyX float64
			for n := 0; n < sh.N; n++ {
				dotDyX += pl.DecodeDot(grad.Data, n, c, codes[n*hw:(n+1)*hw])
			}
			// Σ dy·x̂ = invStd · (Σ dy·x − mean·Σ dy)
			sumDyXhat := invStd * (dotDyX - float64(mean*sumDy))
			b.Beta.Grad.Data[c] += float32(sumDy)
			b.Gamma.Grad.Data[c] += float32(sumDyXhat)

			// dx = g·invStd·dy − g·invStd²·(ΣdyX̂)/m · x
			//      − g·invStd·(Σdy)/m + g·invStd²·(ΣdyX̂)·mean/m
			a := float32(g * invStd)
			cx := float32(-g * invStd * invStd * sumDyXhat / m)
			bb := float32(-g*invStd*sumDy/m + g*invStd*invStd*sumDyXhat*mean/m)
			for n := 0; n < sh.N; n++ {
				pl.AffineCodes(grad.Data, dx.Data, n, c, codes[n*hw:(n+1)*hw], a, cx, bb)
			}
		}
	})
	return dx
}
