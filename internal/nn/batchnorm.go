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
	out := x.Derive(sh)

	// Channels are independent — stats, running-stat updates and the
	// normalized writes all stay within channel c — so the channel loop
	// shards over the worker pool with the per-channel float accumulation
	// order unchanged (deterministic at any worker count). The statistics
	// of up to four channels are reduced in one loop (batchStats), each
	// channel's chain still in n-then-i order, so a chunk takes up to four
	// channels as long as every worker still gets one.
	w := parallel.Workers()
	grain := max(parallel.Grain(3*sh.N*hw, elemGrain), min(4, (b.C+w-1)/w))
	parallel.For(b.C, grain, func(clo, chi int) {
		for c0 := clo; c0 < chi; c0 += 4 {
			k := min(4, chi-c0)
			var mean, invStd [4]float64
			if train {
				b.batchStats(x, c0, k, &mean, &invStd)
			} else {
				for j := range k {
					mean[j] = float64(b.RunningMean[c0+j])
					invStd[j] = 1 / math.Sqrt(float64(b.RunningVar[c0+j])+b.Eps)
				}
			}
			for j := range k {
				c := c0 + j
				mu, is := mean[j], invStd[j]
				g := float64(b.Gamma.W.Data[c])
				bt := float64(b.Beta.W.Data[c])
				for n := 0; n < sh.N; n++ {
					base := (n*sh.C + c) * hw
					dst := out.Data[base:][:hw]
					for i, v := range x.Data[base:][:len(dst)] {
						dst[i] = float32(float64((float64(v)-mu)*is*g) + bt)
					}
				}
			}
		}
	})
	if train {
		b.in = in.save()
	}
	return &ActRef{Name: b.LayerName + ".out", Kind: compress.KindConv, T: out}
}

// batchStats computes the batch mean and inverse standard deviation of
// the k ≤ 4 channels from c0, records them and updates the running
// statistics. Four channels' sum and sum-of-squares chains run
// interleaved in one loop — the chains are latency-bound, so four
// independent ones fill the pipeline — and a shorter tail runs one
// channel at a time; either way each chain adds in n-then-i order, so
// the bits are a lone channel's.
func (b *BatchNorm) batchStats(x *tensor.Tensor, c0, k int, mean, invStd *[4]float64) {
	sh := x.Shape
	hw := sh.H * sh.W
	m := float64(sh.N * hw)
	var sq [4]float64
	if k == 4 {
		// Scalar accumulators: the compiler keeps them in registers, where
		// an array's elements would round-trip through memory.
		var s0, s1, s2, s3 float64
		for n := 0; n < sh.N; n++ {
			x0, x1, x2, x3 := planes4(x.Data, (n*sh.C+c0)*hw, hw)
			for i, v := range x0 {
				s0 += float64(v)
				s1 += float64(x1[i])
				s2 += float64(x2[i])
				s3 += float64(x3[i])
			}
		}
		m0, m1, m2, m3 := s0/m, s1/m, s2/m, s3/m
		*mean = [4]float64{m0, m1, m2, m3}
		var q0, q1, q2, q3 float64
		for n := 0; n < sh.N; n++ {
			x0, x1, x2, x3 := planes4(x.Data, (n*sh.C+c0)*hw, hw)
			for i, v := range x0 {
				d0 := float64(v) - m0
				d1 := float64(x1[i]) - m1
				d2 := float64(x2[i]) - m2
				d3 := float64(x3[i]) - m3
				q0 += float64(d0 * d0)
				q1 += float64(d1 * d1)
				q2 += float64(d2 * d2)
				q3 += float64(d3 * d3)
			}
		}
		sq = [4]float64{q0, q1, q2, q3}
	} else {
		for j := range k {
			var s float64
			for n := 0; n < sh.N; n++ {
				for _, v := range x.Data[(n*sh.C+c0+j)*hw:][:hw] {
					s += float64(v)
				}
			}
			mu := s / m
			var q float64
			for n := 0; n < sh.N; n++ {
				for _, v := range x.Data[(n*sh.C+c0+j)*hw:][:hw] {
					d := float64(v) - mu
					q += float64(d * d)
				}
			}
			mean[j], sq[j] = mu, q
		}
	}
	for j := range k {
		c := c0 + j
		variance := sq[j] / m
		invStd[j] = 1 / math.Sqrt(variance+b.Eps)
		b.mean[c] = float32(mean[j])
		b.invStd[c] = float32(invStd[j])
		b.RunningMean[c] = float32(float64((1-b.Momentum)*float64(b.RunningMean[c])) + float64(b.Momentum*mean[j]))
		b.RunningVar[c] = float32(float64((1-b.Momentum)*float64(b.RunningVar[c])) + float64(b.Momentum*variance))
	}
}

// planes4 returns the four consecutive hw-element planes of data from
// base, resliced to one length so a loop over the first indexes the
// others without bounds checks.
func planes4(data []float32, base, hw int) (p0, p1, p2, p3 []float32) {
	p := data[base : base+4*hw]
	p0 = p[:hw]
	return p0, p[hw : 2*hw][:len(p0)], p[2*hw : 3*hw][:len(p0)], p[3*hw:][:len(p0)]
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
